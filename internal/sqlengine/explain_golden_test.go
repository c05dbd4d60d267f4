package sqlengine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// explainGoldenQueries covers the full operator vocabulary the stable plan
// rendering (Plan.Explain) prints: scan, index_scan, filter, project,
// hash_join, inl_join, hash_agg, sort, distinct, limit and naive-mode parity.
// One golden file pins all of it byte-exactly — the A-PLAN decision log
// embeds these renderings in BENCH_plan.json, so a format drift is a visible
// interface change, not an incidental one.
var explainGoldenQueries = []string{
	"SELECT * FROM users WHERE id = 3",
	"SELECT name FROM users WHERE karma > 40 ORDER BY karma DESC LIMIT 3",
	"SELECT u.name, e.title FROM users u JOIN events e ON e.creator_id = u.id",
	"SELECT e.title FROM events e JOIN users u ON e.creator_id = u.id WHERE u.id = 4",
	"SELECT creator_id, COUNT(*) FROM events GROUP BY creator_id HAVING COUNT(*) > 1 ORDER BY creator_id",
	"SELECT DISTINCT creator_id FROM events",
}

// TestExplainGolden renders the corpus under both planner modes and
// byte-compares against testdata/explain_golden.txt, each plan under the
// heading "== EXPLAIN <query>". Regenerate after a deliberate format change
// with:
//
//	UPDATE_EXPLAIN_GOLDEN=1 go test ./internal/sqlengine -run TestExplainGolden
func TestExplainGolden(t *testing.T) {
	s := newTestDB(t)
	var b strings.Builder
	for _, q := range explainGoldenQueries {
		b.WriteString("== EXPLAIN " + q + "\n")
		b.WriteString(explainText(t, s, q) + "\n")
		s.eng.NaivePlan = true
		b.WriteString("-- naive\n")
		b.WriteString(explainText(t, s, q) + "\n\n")
		s.eng.NaivePlan = false
	}
	got := b.String()

	path := filepath.Join("testdata", "explain_golden.txt")
	if os.Getenv("UPDATE_EXPLAIN_GOLDEN") != "" {
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
		t.Fatalf("missing golden file (regenerate with UPDATE_EXPLAIN_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("EXPLAIN output drifted at line %d\n got: %q\nwant: %q\n(regenerate deliberately with UPDATE_EXPLAIN_GOLDEN=1)", i+1, g, w)
			}
		}
		t.Fatal("EXPLAIN output drifted (length mismatch)")
	}
}
