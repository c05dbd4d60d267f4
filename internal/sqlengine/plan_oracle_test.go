package sqlengine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The plan-reuse oracle. A cached plan outlives the re-ANALYZE of tables it
// does not touch and small drift of the ones it does, and a statistics move
// under it re-costs it in place instead of rebuilding it whenever the new
// statistics decide what it already does; what makes that safe is that a
// rebuild at that moment would have decided the same. The oracle checks
// exactly that, on every plan the cache hands out while it watches: it builds
// the statement's plan afresh — the plan handed out is current, so the build
// analyzes nothing and counts nothing — and holds the cached plan to the fresh
// one's shape. A plan just re-costed is held to the fresh one's every line,
// estimates included: both read the same statistics and row counts.

// planShape renders what a plan decided and nothing it estimated: every
// operator top-down with its operands — access paths and their indexes, join
// order and algorithm, filter placement, the tail. Estimates read live row
// counts and differ between any two builds a write apart.
func planShape(p *Plan) string {
	var b strings.Builder
	depth := 0
	line := func(n *planNode) {
		fmt.Fprintf(&b, "%*s%s %s\n", 2*depth, "", n.kind, n.detail)
		depth++
	}
	for _, n := range p.tail {
		line(n)
	}
	for n := p.root; n != nil; n = n.input {
		line(n)
	}
	return b.String()
}

// PlanReuse is what the oracle saw: the plan-cache hits it checked, how many
// of them were plans re-costed in place, and the first whose cached plan a
// rebuild would not have reproduced.
type PlanReuse struct {
	Hits     int
	Recosts  int
	Mismatch string
}

// WatchPlanReuse switches the oracle on for every engine in the process until
// the returned function, which reports what it saw, is called.
func WatchPlanReuse() (stop func() PlanReuse) {
	var (
		mu  sync.Mutex // runs of a parallel sweep hit their own engines at once
		out PlanReuse
	)
	planReuse = func(e *Engine, s *Session, st *Statement, sel *SelectStmt, cached *Plan, recosted bool) {
		fresh, err := e.buildPlan(s, sel, cached.naive)
		mu.Lock()
		defer mu.Unlock()
		out.Hits++
		if recosted {
			out.Recosts++
		}
		if out.Mismatch != "" {
			return
		}
		switch {
		case err != nil:
			out.Mismatch = fmt.Sprintf("%s: the cached plan runs, a rebuild fails: %v", st.norm, err)
		case planShape(cached) != planShape(fresh),
			recosted && (cached.Explain() != fresh.Explain() || cached.Cost() != fresh.Cost()):
			kept := "cached"
			if recosted {
				kept = "re-costed"
			}
			out.Mismatch = fmt.Sprintf("%s\n%s:\n%s\na rebuild now:\n%s", st.norm, kept, cached.Explain(), fresh.Explain())
		}
	}
	return func() PlanReuse {
		planReuse = nil
		mu.Lock()
		defer mu.Unlock()
		return out
	}
}

// TestPlanReuseOracleNoticesAStalePlan shows the oracle failing: statistics
// changed under a cached plan without the table's generation moving — what an
// ANALYZE that forgot its bump would do — leave a plan a rebuild would not
// make, and the first hit after that reports it.
func TestPlanReuseOracleNoticesAStalePlan(t *testing.T) {
	s := newTestDB(t)
	run := func(sql string, args ...Value) {
		t.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	run("CREATE TABLE pairs (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT, INDEX by_a(a), INDEX by_b(b))")
	for i := int64(0); i < 200; i++ {
		run("INSERT INTO pairs (id, a, b) VALUES (?, ?, ?)", NewInt(i), NewInt(i%100), NewInt(i%4))
	}
	const q = "SELECT id FROM pairs WHERE b = ? AND a = ?"
	stop := WatchPlanReuse()
	run(q, NewInt(1), NewInt(1)) // built: by_a, the more selective
	run(q, NewInt(1), NewInt(1)) // a hit, and a rebuild agrees
	if seen := stop(); seen.Hits != 1 || seen.Mismatch != "" {
		t.Fatalf("before the change: %+v, want one hit and no mismatch", seen)
	}
	pairs := mustTable(t, s.eng, "pairs")
	pairs.stats.cols[1].ndv, pairs.stats.cols[2].ndv = 4, 100 // now by_b is
	stop = WatchPlanReuse()
	run(q, NewInt(1), NewInt(1))
	seen := stop()
	if seen.Hits != 1 || !strings.Contains(seen.Mismatch, "by_a") || !strings.Contains(seen.Mismatch, "by_b") {
		t.Fatalf("after the change: %+v, want the hit reported with both plans", seen)
	}
}
