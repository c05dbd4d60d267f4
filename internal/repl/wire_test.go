package repl_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/binlog"
	"cloudrepl/internal/cloud"
	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestWireSizeIsExact holds the binlog's byte accounting to its encoding for
// every entry a Cloudstone write mix logs — prepared forms, parameterless
// statements, DDL, a raw Append, in both binlog formats — and for the same
// entries decoded off the wire: WireSize is len(Encode()), Log.Bytes is the
// sum of WireSize, and the text every entry renders is the one a statement-
// format binlog has always carried (testdata/logged_text.txt, rendered by the
// tree that materialised the text at commit). Regenerate after a deliberate
// change with:
//
//	UPDATE_LOGGED_TEXT_GOLDEN=1 go test ./internal/repl -run TestWireSizeIsExact
func TestWireSizeIsExact(t *testing.T) {
	var golden strings.Builder
	for _, format := range []string{"statement", "row"} {
		env := sim.NewEnv(5)
		c := cloud.New(env, cloud.Config{})
		m := newEquivalenceServer(t, env, c, "master")
		if format == "row" {
			m.SetRowFormat()
		}
		from := m.Log.LastSeq()
		env.Go("client", func(p *sim.Proc) {
			writeMix(t, p, m, 21)
			if _, err := m.Exec(p, m.Session(cloudstone.DatabaseName), "CREATE TABLE wire_ddl (id BIGINT PRIMARY KEY)"); err != nil {
				t.Error(err)
			}
		})
		env.RunUntil(time.Hour)
		m.Log.Append(cloudstone.DatabaseName, "DELETE FROM wire_ddl", 0)
		env.Shutdown()

		r, err := m.Log.NewReader(0)
		if err != nil {
			t.Fatal(err)
		}
		all := r.TryNextBatch(math.MaxInt, 0)
		wire, err := binlog.DecodeBatch(binlog.EncodeBatch(all))
		if err != nil || len(wire) != len(all) {
			t.Fatalf("%s: %d entries decoded of %d (%v)", format, len(wire), len(all), err)
		}
		var sum int64
		prepared := 0
		fmt.Fprintf(&golden, "== %s\n", format)
		for i, e := range all {
			size := e.WireSize()
			sum += int64(size)
			if e.Stmt != "" {
				prepared++
			}
			if enc := e.Encode(); len(enc) != size {
				t.Errorf("%s seq %d: WireSize %d, encoded %d bytes", format, e.Seq, size, len(enc))
			}
			d := wire[i]
			if d.SQL != e.Text() || d.WireSize() != size || len(d.Encode()) != size || !bytes.Equal(d.Encode(), e.Encode()) {
				t.Errorf("%s seq %d: decoded %q (%d bytes), in memory %q (%d bytes)", format, e.Seq, d.SQL, d.WireSize(), e.Text(), size)
			}
			if e.Seq > from {
				fmt.Fprintf(&golden, "%d %d %s: %s\n", e.Seq, size, e.Database, e.Text())
			}
		}
		if sum != m.Log.Bytes() {
			t.Errorf("%s: Log.Bytes %d, entries' WireSize sums to %d", format, m.Log.Bytes(), sum)
		}
		// Preload's CREATEs and the mix's own make DDL; the mix's DELETE and
		// every row image are texts; the rest are prepared forms.
		if format == "statement" && (prepared == 0 || prepared == len(all)) {
			t.Errorf("%d of %d entries carry a prepared form: the mix covers one kind only", prepared, len(all))
		}
	}
	compareLoggedText(t, filepath.Join("testdata", "logged_text.txt"), golden.String())
}

func compareLoggedText(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_LOGGED_TEXT_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_LOGGED_TEXT_GOLDEN=1): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}

// TestLoggedArgumentsAreOwned: a client reuses its argument vector as soon as
// Run returns. What the master logged — arguments, text, wire size — and the
// row a replica replays from it are the values the write ran with, whatever
// the caller writes into its vector afterwards.
func TestLoggedArgumentsAreOwned(t *testing.T) {
	env := sim.NewEnv(5)
	defer env.Shutdown()
	c := cloud.New(env, cloud.Config{})
	master, replica := newEquivalenceServer(t, env, c, "master"), newReplica(t, env, c, "replica")
	const sql = "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())"
	const want = "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (5000, 1, 2, 'as written', UTC_MICROS())"
	args := []sqlengine.Value{sqlengine.NewInt(5000), sqlengine.NewInt(1), sqlengine.NewInt(2), sqlengine.NewString("as written")}
	var e binlog.Entry
	env.Go("client", func(p *sim.Proc) {
		if _, err := master.Exec(p, master.Session(cloudstone.DatabaseName), sql, args...); err != nil {
			t.Error(err)
			return
		}
		r, err := master.Log.NewReader(master.Log.LastSeq() - 1)
		if err != nil {
			t.Error(err)
			return
		}
		e = r.TryNextBatch(1, 0)[0]
		copy(args, []sqlengine.Value{sqlengine.NewInt(6000), sqlengine.NewInt(3), sqlengine.NewInt(4), sqlengine.NewString("overwritten by the caller")})
		if err := replica.Apply(p, replica.Session(""), e); err != nil {
			t.Error(err)
		}
	})
	env.RunUntil(time.Hour)
	if t.Failed() {
		t.FailNow()
	}
	if len(e.Args) != 4 || e.Args[0].Int() != 5000 || e.Args[3].Str() != "as written" {
		t.Errorf("logged arguments follow the caller's vector: %v", e.Args)
	}
	if e.Text() != want {
		t.Errorf("logged text %q, want %q", e.Text(), want)
	}
	if size := 8 + 8 + 4 + len(e.Database) + 4 + len(want); e.WireSize() != size || len(e.Encode()) != size {
		t.Errorf("wire size %d, encoded %d bytes, want %d", e.WireSize(), len(e.Encode()), size)
	}
	set, err := replica.Session(cloudstone.DatabaseName).Query("SELECT event_id, user_id, body FROM comments WHERE id = 5000")
	if err != nil || len(set.Rows) != 1 || set.Rows[0][0].Int() != 1 || set.Rows[0][1].Int() != 2 || set.Rows[0][2].Str() != "as written" {
		t.Errorf("replica replayed %v (%v), want (1, 2, 'as written')", set, err)
	}
}
