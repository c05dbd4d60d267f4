package sqlengine

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"
)

// The write golden pins, for a script of INSERT/UPDATE/DELETE statements run
// in order on one engine: ExecStats, the statement's text (a write's is its
// LoggedWrite's Text, Result.SQL for the rest), what the commit hook
// received, the commit version, and a checksum of every table (heap order)
// plus a set of index-equality probes (bucket order). It was frozen from the tree-walking
// write executor (Bind + pickCandidates + scope.eval) before compiled write
// plans replaced it, so it is the reference they must reproduce byte for
// byte: ExecStats is what the server's cost model turns into virtual CPU and
// the logged text is what every replication link carries.

// writeGoldenSchema has a unique and a non-unique secondary index beside the
// primary keys, and one table with neither key nor index.
var writeGoldenSchema = []string{
	`CREATE TABLE users (id BIGINT PRIMARY KEY, name VARCHAR(16) NOT NULL, karma BIGINT, city VARCHAR(8),
		UNIQUE uq_name (name), INDEX idx_city (city))`,
	`CREATE TABLE events (id BIGINT PRIMARY KEY, creator_id BIGINT NOT NULL, title VARCHAR(20),
		score DOUBLE, created TIMESTAMP, INDEX idx_creator (creator_id))`,
	`CREATE TABLE logs (a BIGINT, b VARCHAR(8))`,
}

var writeGoldenProbes = []string{
	"SELECT id FROM users WHERE city = 'ams'",
	"SELECT id FROM users WHERE city = 'ber'",
	"SELECT id FROM users WHERE name = 'userc'",
	"SELECT id FROM events WHERE creator_id = 3",
	"SELECT id FROM events WHERE creator_id = 4",
	"SELECT id FROM events WHERE creator_id = 9",
}

func newWriteGoldenDB(t *testing.T) *Session {
	t.Helper()
	eng := NewEngine()
	var now int64
	eng.NowMicros = func() int64 { now += 1000; return now }
	if err := eng.CreateDatabase("app", false); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession("app")
	for _, ddl := range writeGoldenSchema {
		if _, err := s.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	cities := []string{"ams", "ber", "cph"}
	for i := 1; i <= 10; i++ {
		if _, err := s.Exec("INSERT INTO users (id, name, karma, city) VALUES (?, ?, ?, ?)",
			NewInt(int64(i)), NewString("user"+string(rune('a'+i-1))), NewInt(int64(i*10)), NewString(cities[i%3])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 20; i++ {
		if _, err := s.Exec("INSERT INTO events (id, creator_id, title, score, created) VALUES (?, ?, ?, ?, ?)",
			NewInt(int64(i)), NewInt(int64(i%10+1)), NewString("event "+string(rune('A'+i-1))),
			NewFloat(float64(i)/2), NewTime(int64(i)*1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 4; i++ {
		if _, err := s.Exec("INSERT INTO logs (a, b) VALUES (?, ?)", NewInt(int64(i)), NewString("l"+string(rune('0'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// writeGoldenScript is the corpus. Order matters: later steps see earlier
// steps' effects.
func writeGoldenScript() []goldenQuery {
	return []goldenQuery{
		// INSERT: parameters, literals, builtins and their mixes.
		gq("INSERT INTO users (id, name, karma, city) VALUES (?, ?, ?, ?)", NewInt(11), NewString("userk"), NewInt(110), NewString("ams")),
		gq("INSERT INTO users (id, name, karma, city) VALUES (21, 'lit', 5, 'ams')"),
		gq("INSERT INTO events (id, creator_id, title, score, created) VALUES (?, 3, ?, ?, UTC_MICROS())", NewInt(21), NewString("ev21"), NewFloat(3)),
		gq("INSERT INTO events (id, creator_id, title, score, created) VALUES (?, ?, ?, ?, UTC_MICROS())", NewInt(22), NewInt(4), NewString("O'Re\\il \"q\" ?"), NewFloat(2.5)),
		gq("insert  into events (id, creator_id, title, score, created) values (?, ?, NULL, ?, ?)", NewInt(23), NewInt(4), Null, NewTime(777)),
		gq("INSERT INTO logs VALUES (?, ?)", NewInt(5), NewString("l5")),
		gq("INSERT INTO logs (b, a) VALUES ('x', 6), (?, ?), ('Z', -8)", NewString("y"), NewInt(7)),
		gq("INSERT INTO logs (a, b) VALUES (?, ?)", NewBool(true), NewFloat(1.25)),
		gq("INSERT INTO logs (a, b) VALUES ('42', 123456789012)"),
		gq("INSERT INTO logs (a) VALUES (3.9)"),
		gq("INSERT INTO app.logs (a, b) VALUES (?, ?)", NewInt(4), NewString("mixed")),
		// INSERT failures leave no trace: a multi-row insert undone by a
		// duplicate key, unique-index and NOT NULL violations, shape errors.
		gq("INSERT INTO users (id, name, karma, city) VALUES (30, 'n30', 1, 'ber'), (31, 'n31', 1, 'ber'), (1, 'dup', 1, 'ber')"),
		gq("INSERT INTO users (id, name, karma, city) VALUES (?, ?, 1, 'ber'), (?, ?, 1, 'ber')", NewInt(32), NewString("n32"), NewInt(33), NewString("usera")),
		gq("INSERT INTO users (id, name, karma, city) VALUES (34, NULL, 1, 'ber')"),
		gq("INSERT INTO users (id, name) VALUES (?, ?)", NewInt(35)),
		gq("INSERT INTO users (id, name) VALUES (?)", NewInt(35), NewString("extra")),
		gq("INSERT INTO users (id, name) VALUES (35)"),
		gq("INSERT INTO users (id, nosuch) VALUES (35, 'x')"),
		gq("INSERT INTO nosuch (id) VALUES (1)"),
		gq("INSERT INTO logs (a, b) VALUES ('notanumber', 'x')"),
		gq("INSERT INTO logs (a, b) VALUES (a, 'x')"),
		gq("INSERT INTO logs (a, b) VALUES (NOSUCHFN(1), 'x')"),

		// UPDATE access: primary key, secondary index, mirrored equality,
		// several usable conjuncts (the first wins), nothing usable.
		gq("UPDATE users SET karma = ? WHERE id = ?", NewInt(15), NewInt(1)),
		gq("BEGIN"),
		gq("UPDATE events SET score = ? WHERE id = ?", NewFloat(2), NewInt(2)),
		gq("UPDATE events SET score = ? WHERE id = ?", NewFloat(7), NewInt(12)),
		gq("UPDATE events SET score = ? WHERE id = ?", NewFloat(4), NewInt(21)),
		gq("COMMIT"),
		gq("UPDATE users SET karma = 60 WHERE 3 = id"),
		gq("UPDATE events SET title = 'idx first' WHERE creator_id = 4 AND id = 13"),
		gq("UPDATE events SET title = 'pk first' WHERE id = 13 AND creator_id = 4"),
		gq("UPDATE events SET title = ? WHERE score > 1 AND creator_id = ? AND id = 14", NewString("skip range"), NewInt(5)),
		gq("UPDATE users SET karma = 0 WHERE karma > 80"),
		gq("UPDATE users SET karma = 1 WHERE id > 5 AND id < 8"),
		gq("UPDATE users SET city = 'osl' WHERE city = ?", NewString("cph")),
		gq("UPDATE users SET karma = 2 WHERE name = 'userc'"),
		gq("UPDATE users SET karma = 3 WHERE users.id = 2"),
		gq("UPDATE users SET karma = 4 WHERE id IN (1, 2)"),
		gq("UPDATE users SET karma = 5 WHERE id IN (1, 2)"),
		gq("UPDATE users SET karma = 6 WHERE id >= ? AND id <= ? AND name LIKE 'user%'", NewInt(2), NewInt(4)),
		// Index equality whose value kind the index cannot match (a string
		// key never equals a numeric one in the bucket map, NULL matches
		// nothing), against the kinds that normalise to one key.
		gq("UPDATE users SET karma = 7 WHERE id = '3'"),
		gq("UPDATE users SET karma = 7 WHERE id = ?", NewString("3")),
		gq("UPDATE users SET karma = 8 WHERE id = 3.0"),
		gq("UPDATE users SET karma = 9 WHERE id = ?", NewBool(true)),
		gq("UPDATE users SET karma = 10 WHERE id = NULL"),
		gq("UPDATE users SET karma = 10 WHERE id = ?", Null),
		gq("UPDATE events SET score = 0 WHERE creator_id = 4.5"),
		// Keys: a constant, a parameter; a key that reads a column is no key
		// at all.
		gq("UPDATE users SET karma = 11 WHERE id = 3"),
		gq("UPDATE users SET karma = 12 WHERE id = ?", NewInt(4)),
		gq("UPDATE users SET karma = 13 WHERE id = 4"),
		gq("UPDATE users SET karma = 14 WHERE id = karma"),
		gq("UPDATE events SET created = UTC_MICROS(), score = ? WHERE id = ?", NewFloat(9.5), NewInt(2)),
		gq("UPDATE events SET score = NULL, title = 'event C!' WHERE id = 3"),
		gq("UPDATE logs SET b = 'all'"),
		gq("BEGIN"),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(101), NewInt(1)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(102), NewInt(2)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(103), NewInt(3)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(104), NewInt(4)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(105), NewInt(5)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(106), NewInt(6)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(107), NewInt(7)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(92), NewInt(-8)),
		gq("UPDATE logs SET b = ?, a = ? WHERE a = ?", NewString("args"), NewInt(142), NewInt(42)),
		gq("COMMIT"),
		gq("UPDATE users SET karma = 0 WHERE id = 999"),
		gq("UPDATE users SET karma = 0 WHERE karma < 0"),
		// Key changes and constraint failures: a moved primary key, a
		// duplicate one, a unique violation part-way through a multi-row
		// update (everything before it is put back), NOT NULL.
		gq("UPDATE users SET id = 50, name = 'moved' WHERE id = 5"),
		gq("UPDATE users SET id = 1 WHERE id = 2"),
		gq("UPDATE users SET name = 'same' WHERE karma >= 0"),
		gq("UPDATE users SET name = NULL WHERE id = 2"),
		gq("UPDATE users SET nosuch = 1 WHERE id = 2"),
		gq("UPDATE users SET karma = 1 WHERE nosuch = 2"),
		gq("UPDATE users SET karma = 1 WHERE other.id = 2"),
		gq("UPDATE nosuch SET a = 1"),
		gq("UPDATE users SET karma = ? WHERE id = ?", NewInt(1)),

		// DELETE.
		gq("DELETE FROM events WHERE id = ?", NewInt(20)),
		gq("DELETE FROM events WHERE creator_id = 9"),
		gq("DELETE FROM events WHERE ? = creator_id AND score > 100", NewInt(4)),
		gq("DELETE FROM users WHERE karma = 6"),
		gq("DELETE FROM users WHERE id = 999"),
		gq("DELETE FROM logs WHERE a > 105"),
		gq("DELETE FROM logs"),
		gq("DELETE FROM logs"),
		gq("DELETE FROM nosuch WHERE a = 1"),

		// Transactions: an in-transaction rewrite of one row, then ROLLBACK
		// puts every table back and logs nothing; the same shape committed
		// reaches the hook in order; a failed statement inside a transaction
		// does not poison it.
		gq("BEGIN"),
		gq("UPDATE users SET karma = ? WHERE id = ?", NewInt(1000), NewInt(1)),
		gq("UPDATE users SET karma = 1001 WHERE id = 1"),
		gq("INSERT INTO logs (a, b) VALUES (?, 'txn')", NewInt(1)),
		gq("UPDATE logs SET b = 'txn2' WHERE a = 1"),
		gq("DELETE FROM events WHERE creator_id = ?", NewInt(3)),
		gq("DELETE FROM users WHERE id = 1"),
		gq("ROLLBACK"),
		gq("BEGIN"),
		gq("INSERT INTO logs (a, b) VALUES (?, ?)", NewInt(2), NewString("kept")),
		gq("UPDATE logs SET b = 'KEPT' WHERE a = 2"),
		gq("INSERT INTO users (id, name, karma, city) VALUES (1, 'dup', 0, 'x')"),
		gq("UPDATE users SET karma = ? WHERE id = ?", NewInt(14), NewInt(1)),
		gq("DELETE FROM events WHERE id = ?", NewInt(19)),
		gq("COMMIT"),
	}
}

// tableChecksum hashes a SELECT's rows in the order the engine returns them.
func tableChecksum(t *testing.T, s *Session, sql string) (int, uint64) {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	h := fnv.New64a()
	for _, r := range res.Set.Rows {
		for _, v := range r {
			h.Write([]byte(v.SQL()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{'\n'})
	}
	return len(res.Set.Rows), h.Sum64()
}

// captureCommits routes everything the commit hook receives into sink.
func captureCommits(eng *Engine, sink *[]string) {
	eng.OnCommit = func(db string, writes []LoggedWrite) {
		for _, w := range writes {
			*sink = append(*sink, db+": "+w.Text())
		}
	}
}

// TestWriteGolden byte-compares the script against
// testdata/write_golden.txt. Regenerate after a deliberate semantic change
// with:
//
//	UPDATE_WRITE_GOLDEN=1 go test ./internal/sqlengine -run TestWriteGolden
func TestWriteGolden(t *testing.T) {
	var b strings.Builder
	s := newWriteGoldenDB(t)
	var logged []string
	captureCommits(s.eng, &logged)
	for _, q := range writeGoldenScript() {
		fmt.Fprintf(&b, "== statement | %s", q.sql)
		for _, a := range q.args {
			b.WriteString(" | " + a.SQL())
		}
		b.WriteByte('\n')
		logged = logged[:0]
		st, err := s.eng.Prepare(q.sql)
		var res *Result
		if err == nil {
			res, err = st.Run(s, q.args...)
		}
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			fmt.Fprintf(&b, "class=%s examined=%d affected=%d returned=%d index=%v\n", res.Stats.Class,
				res.Stats.RowsExamined, res.Stats.RowsAffected, res.Stats.RowsReturned, res.Stats.UsedIndex)
			text := res.SQL
			if res.Stats.Class == ClassWrite {
				w, _ := st.Logged(q.args)
				text = w.Text()
			}
			fmt.Fprintf(&b, "sql: %s\n", text)
			if res.Set != nil {
				for _, r := range res.Set.Rows {
					fmt.Fprintf(&b, "row: %s\n", r[0].String())
				}
			}
		}
		for _, l := range logged {
			fmt.Fprintf(&b, "log: %s\n", l)
		}
		fmt.Fprintf(&b, "commit=%d", s.eng.CommitVersion())
		for _, tbl := range []string{"users", "events", "logs"} {
			n, sum := tableChecksum(t, s, "SELECT * FROM "+tbl)
			fmt.Fprintf(&b, " %s=%d:%016x", tbl, n, sum)
		}
		h := fnv.New64a()
		for _, p := range writeGoldenProbes {
			n, sum := tableChecksum(t, s, p)
			fmt.Fprintf(h, "%d:%x;", n, sum)
		}
		fmt.Fprintf(&b, " probes=%016x\n", h.Sum64())
	}
	compareGolden(t, filepath.Join("testdata", "write_golden.txt"), b.String(), "UPDATE_WRITE_GOLDEN")
}
