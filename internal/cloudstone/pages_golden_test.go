package cloudstone

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
)

// TestPagesGolden pins, for every Cloudstone read page at the read-heavy
// cell's data size (scale 600), the result rows in order, the column names
// and the ExecStats the server's cost model turns into virtual CPU — under
// both planners, read at the latest version and through an MVCC-degraded
// snapshot. The file was frozen from the materialising executor before the
// bound pipeline replaced it; every virtual number the figures are made of
// depends on it staying put. Regenerate deliberately with:
//
//	UPDATE_PAGES_GOLDEN=1 go test ./internal/cloudstone -run TestPagesGolden
func TestPagesGolden(t *testing.T) {
	var b strings.Builder
	for _, naive := range []bool{false, true} {
		for _, snapshot := range []bool{false, true} {
			env := sim.NewEnv(11)
			c := cloud.New(env, cloud.Config{})
			inst := c.Launch("m", cloud.Small, cloud.Placement{Region: cloud.USWest1, Zone: "a"})
			srv := server.New(env, "m", inst, server.DefaultCostModel())
			if err := Preload(600)(srv); err != nil {
				t.Fatal(err)
			}
			srv.Eng.NaivePlan = naive
			sess := srv.Eng.NewSession(DatabaseName)
			if snapshot {
				// The reader's transaction opens first; the writes commit
				// behind it, so it reads through the version chains.
				if _, err := sess.Exec("BEGIN"); err != nil {
					t.Fatal(err)
				}
				w := srv.Eng.NewSession(DatabaseName)
				for _, sql := range []string{
					"INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (9001, 7, 'Event 97 meetup', 'late', 1, 999999)",
					"INSERT INTO event_tags (id, event_id, tag_id) VALUES (9001, 7, 2)",
					"UPDATE events SET title = 'renamed' WHERE id = 23",
					"DELETE FROM attendance WHERE event_id = 1",
				} {
					if _, err := w.Exec(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
			}
			for _, pq := range pageQueries() {
				fmt.Fprintf(&b, "== naive=%v snapshot=%v %s | %s", naive, snapshot, pq.name, pq.sql)
				for _, a := range pq.args {
					b.WriteString(" | " + a.SQL())
				}
				b.WriteByte('\n')
				res, err := sess.Exec(pq.sql, pq.args...)
				if err != nil {
					t.Fatalf("%s: %v", pq.name, err)
				}
				fmt.Fprintf(&b, "columns=%s examined=%d returned=%d index=%v\n", strings.Join(res.Set.Columns, ","),
					res.Stats.RowsExamined, res.Stats.RowsReturned, res.Stats.UsedIndex)
				for _, r := range res.Set.Rows {
					for i, v := range r {
						if i > 0 {
							b.WriteByte('|')
						}
						b.WriteString(v.SQL())
					}
					b.WriteByte('\n')
				}
			}
			env.Shutdown()
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "pages_golden.txt")
	if os.Getenv("UPDATE_PAGES_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_PAGES_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		header := ""
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if strings.HasPrefix(gl[i], "== ") {
				header = gl[i]
			}
			if gl[i] != wl[i] {
				t.Fatalf("drifted at line %d under %q\n got: %q\nwant: %q", i+1, header, gl[i], wl[i])
			}
		}
		t.Fatalf("drifted: got %d lines, want %d", len(gl), len(wl))
	}
}
