package sqlengine

// Table statistics for the cost-based planner (planner.go). A table carries
// one tableStats: the live row count is always exact (it is just the heap
// length), while the per-column profile — number of distinct values, min and
// max — comes from the most recent ANALYZE pass and is allowed to drift.
//
// Maintenance is deliberately two-speed:
//
//   - Incrementally, on every write: the row count is implicit, and inserts
//     widen each column's observed min/max so range-selectivity estimates
//     never think new data is outside the known domain. Deletes do not
//     shrink min/max (that would need a scan); the bounds are upper bounds
//     on the true domain, which is the safe direction for selectivity.
//
//   - Lazily, at plan time: when the row count has drifted more than 20%
//     from the count at the last ANALYZE (or the table has never been
//     analyzed), the planner re-analyzes before costing. Analysis scans the
//     latest committed images within one engine call, so it is consistent
//     with the state a latest-version reader sees; the table's statistics
//     generation then moves, and the cached cost-based plans that read this
//     table, and no other plan, are re-costed against the new profile: each
//     is kept with new estimates, or rebuilt only if the new statistics
//     change one of its decisions (planner.go). Snapshot readers behind the
//     latest version may plan against slightly newer statistics — harmless,
//     because statistics only steer plan choice, never visibility: operators
//     resolve rows through the same MVCC read view regardless of the plan
//     shape (DESIGN.md §14).
type tableStats struct {
	// analyzedRows is the row count at the last ANALYZE (-1 = never).
	analyzedRows int
	// analyzedV is the engine commit version the last ANALYZE ran at,
	// recording which MVCC state the column profile describes.
	analyzedV uint64
	cols      []colStats
}

// colStats is the per-column profile from the last ANALYZE, plus
// incrementally widened bounds.
type colStats struct {
	ndv      int   // distinct non-NULL values at last ANALYZE (≥1 once analyzed)
	nulls    int   // NULL count at last ANALYZE
	min, max Value // observed bounds (widened by inserts since)
	bounded  bool  // min/max valid (false until a non-NULL value is seen)
}

// clone returns a copy that shares nothing mutable with ts.
func (ts tableStats) clone() tableStats {
	ts.cols = append([]colStats(nil), ts.cols...)
	return ts
}

// statsDriftLimit is the fractional row-count drift that triggers a lazy
// re-ANALYZE at plan time.
const statsDriftLimit = 0.20

// stale reports whether the profile should be rebuilt before costing.
func (ts *tableStats) stale(liveRows int) bool {
	if ts.analyzedRows < 0 {
		return true
	}
	drift := liveRows - ts.analyzedRows
	if drift < 0 {
		drift = -drift
	}
	// Small tables re-analyze on any change: the scan is trivially cheap and
	// the relative-drift rule would otherwise never fire near zero rows.
	if ts.analyzedRows < 16 {
		return drift > 0
	}
	return float64(drift) > statsDriftLimit*float64(ts.analyzedRows)
}

// observeInsert widens column bounds for a newly inserted row, keeping
// range-selectivity denominators honest between ANALYZE passes.
func (ts *tableStats) observeInsert(vals []Value) {
	if len(ts.cols) != len(vals) {
		return // never analyzed; bounds arrive with the first ANALYZE
	}
	for i, v := range vals {
		if v.IsNull() {
			continue
		}
		cs := &ts.cols[i]
		if !cs.bounded {
			cs.min, cs.max, cs.bounded = v, v, true
			continue
		}
		if Compare(v, cs.min) < 0 {
			cs.min = v
		}
		if Compare(v, cs.max) > 0 {
			cs.max = v
		}
	}
}

// analyze rebuilds t's column profile from the latest committed images,
// reading only row value slices. It works in storage it keeps: t's own profile is overwritten in place and distinct values are
// counted in the engine's sets, so re-analyzing a table whose distinct values
// fit what some earlier pass saw allocates nothing.
func (e *Engine) analyze(t *Table) {
	e.analyzeRuns++
	ts := &t.stats
	ncols := len(t.Columns)
	if len(ts.cols) == ncols {
		clear(ts.cols)
	} else {
		ts.cols = make([]colStats, ncols)
	}
	// One distinct-key set per column. Value.hashKey normalizes kinds that
	// compare equal (1 and 1.0), matching index and GROUP BY identity; a
	// string key shares the row's bytes.
	for len(e.distinct) < ncols {
		e.distinct = append(e.distinct, keyMap[struct{}]{})
	}
	seen := e.distinct[:ncols]
	var cur rowCursor
	t.store.scan(readView{}, &cur)
	for vals, more := cur.next(); more; vals, more = cur.next() {
		for i, v := range vals {
			cs := &ts.cols[i]
			if v.IsNull() {
				cs.nulls++
				continue
			}
			seen[i].put(v.hashKey(), struct{}{})
			if !cs.bounded {
				cs.min, cs.max, cs.bounded = v, v, true
				continue
			}
			if Compare(v, cs.min) < 0 {
				cs.min = v
			}
			if Compare(v, cs.max) > 0 {
				cs.max = v
			}
		}
	}
	for i := range ts.cols {
		ts.cols[i].ndv = seen[i].len()
		if ts.cols[i].ndv == 0 {
			ts.cols[i].ndv = 1 // avoid zero denominators on all-NULL columns
		}
		// Emptied now, not at the next pass: a set left full would keep this
		// table's strings reachable after their rows are gone.
		seen[i].clear()
	}
	ts.analyzedRows = t.NumRows()
	ts.analyzedV = e.commitV
	t.statsGen++
}

// Analyze rebuilds the statistics of db.table now, stale or not, and returns
// the number of rows the pass read — for a caller that wants the pass itself
// (the planner bench times it), not a plan.
func (e *Engine) Analyze(db, table string) (int, error) {
	_, t, err := (&Session{eng: e}).resolveTable(TableRef{DB: db, Name: table})
	if err != nil {
		return 0, err
	}
	e.analyze(t)
	return t.NumRows(), nil
}

// PlanStats reports how many plans — SELECT plans and write plans — the engine
// has built for statements to run, and how many statistics passes it has made:
// what a re-ANALYZE costs is the pass, a re-cost of every plan over the table
// and a build of each plan whose decisions the new statistics change.
func (e *Engine) PlanStats() (builds, analyzeRuns uint64) {
	return e.planBuilds, e.analyzeRuns
}

// refreshStats re-analyzes t if its profile is stale, returning the
// (possibly rebuilt) statistics.
func (e *Engine) refreshStats(t *Table) *tableStats {
	if t.stats.stale(t.NumRows()) {
		e.analyze(t)
	}
	return &t.stats
}

// ndvOf returns the distinct-value estimate for column pos, defaulting to a
// tenth of the analyzed rows when the profile has no entry (never analyzed).
func (ts *tableStats) ndvOf(pos int, liveRows int) int {
	if pos >= 0 && pos < len(ts.cols) && ts.cols[pos].ndv > 0 {
		return ts.cols[pos].ndv
	}
	if liveRows >= 10 {
		return liveRows / 10
	}
	if liveRows > 0 {
		return liveRows
	}
	return 1
}

// rangeFraction estimates the fraction of the column domain selected by a
// one-sided comparison against v, using the observed bounds. Non-numeric or
// unbounded columns fall back to defaultRangeSel.
func (cs *colStats) rangeFraction(op string, v Value) float64 {
	if !cs.bounded || !cs.min.numeric() || !cs.max.numeric() || !v.numeric() {
		return defaultRangeSel
	}
	lo, hi, x := cs.min.Float(), cs.max.Float(), v.Float()
	if hi <= lo {
		return defaultRangeSel
	}
	var f float64
	switch op {
	case "<", "<=":
		f = (x - lo) / (hi - lo)
	case ">", ">=":
		f = (hi - x) / (hi - lo)
	default:
		return defaultRangeSel
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}
