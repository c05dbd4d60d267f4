package sqlengine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The pipeline golden pins result rows, their order, the output column names
// and ExecStats for a corpus of SELECTs under the cost-based and the naive
// planner, each read both at the latest version and through an MVCC-degraded
// snapshot. It was frozen from the materialising executor before the bound
// pipeline replaced it, so it is the reference the pipeline must reproduce
// byte for byte: ExecStats is what the server's cost model turns into
// virtual CPU, and a drift here moves every figure.

type goldenQuery struct {
	sql  string
	args []Value
}

func gq(sql string, args ...Value) goldenQuery { return goldenQuery{sql, args} }

// pipelineGoldenCorpus is the differential corpus plus the tail shapes it
// lacks: parameterised LIMIT/OFFSET, DISTINCT under LIMIT, aggregates over
// groups and over no rows, and empty inputs.
func pipelineGoldenCorpus() []goldenQuery {
	var out []goldenQuery
	for _, q := range differentialQueries {
		out = append(out, gq(q))
	}
	return append(out,
		gq("SELECT id FROM events ORDER BY score DESC LIMIT ? OFFSET ?", NewInt(3), NewInt(1)),
		gq("SELECT id FROM events LIMIT ?", NewInt(4)),
		gq("SELECT id FROM events LIMIT 5 OFFSET 18"),
		gq("SELECT id FROM events LIMIT 0"),
		gq("SELECT id FROM events ORDER BY id LIMIT 0"),
		gq("SELECT id FROM events ORDER BY id DESC LIMIT 50"),
		gq("SELECT creator_id, id FROM events ORDER BY creator_id ASC, id DESC LIMIT 4"),
		gq("SELECT DISTINCT creator_id FROM events LIMIT 3"),
		gq("SELECT DISTINCT creator_id FROM events ORDER BY creator_id DESC LIMIT 3 OFFSET 1"),
		gq("SELECT COUNT(*), SUM(karma) FROM users WHERE id > 1000"),
		gq("SELECT creator_id, COUNT(*) AS cnt FROM events GROUP BY creator_id ORDER BY cnt DESC, creator_id LIMIT 4"),
		gq("SELECT creator_id, MAX(score) FROM events GROUP BY creator_id HAVING MAX(score) > ? ORDER BY creator_id", NewFloat(8)),
		gq("SELECT creator_id, COUNT(*) FROM events WHERE id < 0 GROUP BY creator_id"),
		gq("SELECT creator_id, title FROM events WHERE creator_id = ? AND score > 2", NewInt(3)),
		gq("SELECT * FROM users u JOIN events e ON e.creator_id = u.id WHERE u.id = 1"),
		gq("SELECT e.id, u.name FROM events e JOIN users u ON u.id = e.creator_id LIMIT 3"),
		gq("SELECT e.id, u.name FROM events e JOIN users u ON u.id = e.creator_id WHERE u.karma >= 50 LIMIT 2 OFFSET 1"),
		gq("SELECT name FROM users WHERE id = -5"),
	)
}

// planShapeCorpus is the four planbench shapes (internal/experiment) over a
// scaled-down copy of their schema.
func planShapeCorpus() []goldenQuery {
	return []goldenQuery{
		gq("SELECT * FROM items WHERE id = ?", NewInt(17)),
		gq("SELECT id, val FROM items WHERE grp = ?", NewInt(3)),
		gq("SELECT COUNT(*) AS n FROM items i JOIN lines l ON l.ref = i.id WHERE l.qty = ?", NewInt(2)),
		gq("SELECT grp, COUNT(*) AS n FROM items GROUP BY grp ORDER BY n DESC"),
	}
}

func newPlanShapeDB(t *testing.T) *Session {
	t.Helper()
	eng := NewEngine()
	if err := eng.CreateDatabase("bench", false); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession("bench")
	for _, ddl := range []string{
		"CREATE TABLE items (id BIGINT PRIMARY KEY, grp BIGINT, val VARCHAR(32), INDEX idx_grp (grp))",
		"CREATE TABLE lines (id BIGINT PRIMARY KEY, ref BIGINT, qty BIGINT)",
	} {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 240; i++ {
		if _, err := s.Exec("INSERT INTO items (id, grp, val) VALUES (?, ?, ?)",
			NewInt(int64(i)), NewInt(int64(i%13)), NewString(fmt.Sprintf("item%05d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("INSERT INTO lines (id, ref, qty) VALUES (?, ?, ?)",
			NewInt(int64(i)), NewInt(int64(i)), NewInt(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// renderGolden runs one query and renders columns, ExecStats and rows.
func renderGolden(t *testing.T, b *strings.Builder, s *Session, q goldenQuery) {
	t.Helper()
	res, err := s.Exec(q.sql, q.args...)
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "columns=%s examined=%d returned=%d index=%v\n",
		strings.Join(res.Set.Columns, ","), res.Stats.RowsExamined, res.Stats.RowsReturned, res.Stats.UsedIndex)
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

// goldenSection renders a corpus four ways: {cost, naive} × {latest,
// snapshot}. The snapshot reader opens its transaction before disturb
// commits, so it must keep seeing the pre-disturb state through the version
// chains while every index access degrades to a visible-image scan.
func goldenSection(t *testing.T, b *strings.Builder, name string, fresh func(*testing.T) *Session,
	corpus []goldenQuery, disturb []string) {
	t.Helper()
	for _, naive := range []bool{false, true} {
		for _, snapshot := range []bool{false, true} {
			s := fresh(t)
			s.eng.NaivePlan = naive
			if snapshot {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Fatal(err)
				}
				w := s.eng.NewSession(s.DB())
				for _, sql := range disturb {
					if _, err := w.Exec(sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
			}
			for _, q := range corpus {
				fmt.Fprintf(b, "== %s naive=%v snapshot=%v | %s", name, naive, snapshot, q.sql)
				for _, a := range q.args {
					b.WriteString(" | " + a.SQL())
				}
				b.WriteByte('\n')
				renderGolden(t, b, s, q)
			}
		}
	}
}

// TestPipelineGolden byte-compares the corpus against
// testdata/pipeline_golden.txt. Regenerate after a deliberate semantic change
// with:
//
//	UPDATE_PIPELINE_GOLDEN=1 go test ./internal/sqlengine -run TestPipelineGolden
func TestPipelineGolden(t *testing.T) {
	var b strings.Builder
	goldenSection(t, &b, "corpus", newTestDB, pipelineGoldenCorpus(), []string{
		"INSERT INTO events (id, creator_id, title, score, created) VALUES (99, 4, 'late', 1.0, 1)",
		"UPDATE users SET karma = 5 WHERE id = 7",
		"DELETE FROM events WHERE id = 3",
	})
	goldenSection(t, &b, "shapes", newPlanShapeDB, planShapeCorpus(), []string{
		"INSERT INTO items (id, grp, val) VALUES (999, 3, 'late')",
		"UPDATE lines SET qty = 2 WHERE id = 8",
		"DELETE FROM items WHERE id = 17",
	})
	compareGolden(t, filepath.Join("testdata", "pipeline_golden.txt"), b.String(), "UPDATE_PIPELINE_GOLDEN")
}

// compareGolden byte-compares got with the golden file at path, rewriting the
// file instead when the named environment variable is set.
func compareGolden(t *testing.T, path, got, updateEnv string) {
	t.Helper()
	if os.Getenv(updateEnv) != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		t.Fatalf("missing golden file (regenerate with %s=1): %v", updateEnv, err)
	}
	if got == string(want) {
		return
	}
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
