package sqlengine

import (
	"fmt"
	"sort"
)

// The tail turns the frames the source iterators stream into the result set,
// doing the work of the plan's presentation nodes (hash_agg, project, sort,
// topn, distinct, limit) in three steps over plan-owned scratch:
//
//	gather  pull frames and keep what the result can need, by reference: the
//	        row images of each surviving row (bounded to LIMIT+OFFSET), or one
//	        entry per group with its accumulators folded as rows arrive
//	order   bounded stable top-N while gathering, or one stable sort after it
//	emit    project the survivors — and only them — into a result sized
//	        exactly, then DISTINCT and the LIMIT/OFFSET it defers
//
// ExecStats is frozen: StatementCost turns RowsExamined, RowsReturned and
// UsedIndex into virtual CPU, so they must not depend on how the tail is
// executed. A driving scan charges its candidates when the run opens it, so
// over a lone scan the gather stops pulling once the bound is reached; a join
// charges per outer row, so there it keeps draining — counting, not keeping.
// Nothing placed in a Result aliases plan scratch or a row image.

// aggSpec is one aggregate call of an aggregated SELECT.
type aggSpec struct {
	fn       string // COUNT, SUM, AVG, MIN, MAX
	star     bool   // COUNT(*)
	distinct bool
	arg      *bexpr
}

// aggAcc folds one aggregate over one group.
type aggAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	anyFloat bool
	min, max Value
	seen     map[hashKey]struct{} // DISTINCT values folded so far
}

func (a *aggAcc) add(v Value, distinct bool) {
	if v.IsNull() {
		return
	}
	if distinct {
		if a.seen == nil {
			a.seen = map[hashKey]struct{}{}
		}
		k := v.hashKey()
		if _, dup := a.seen[k]; dup {
			return
		}
		a.seen[k] = struct{}{}
	}
	a.count++
	a.anyFloat = a.anyFloat || v.Kind() == KindFloat
	a.sumF += v.Float()
	a.sumI += v.Int()
	if a.min.IsNull() || Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggAcc) result(fn string) Value {
	switch {
	case fn == "COUNT":
		return NewInt(a.count)
	case fn == "MIN":
		return a.min
	case fn == "MAX":
		return a.max
	case a.count == 0:
		return Null
	case fn == "AVG":
		return NewFloat(a.sumF / float64(a.count))
	case a.anyFloat:
		return NewFloat(a.sumF)
	}
	return NewInt(a.sumI)
}

// execPlan runs a plan. acts, when non-nil, receives per-node output counts
// for EXPLAIN ANALYZE. Engine lock held.
func (e *Engine) execPlan(s *Session, p *Plan, args []Value, acts []int64) (*Result, error) {
	if len(args) != p.nparams {
		return nil, fmt.Errorf("sqlengine: statement has %d parameters but %d arguments given", p.nparams, len(args))
	}
	rt := &p.rt
	rt.e, rt.s, rt.args, rt.acts = e, s, args, acts
	rt.stats = ExecStats{Class: ClassRead}
	// Visibility is decided per execution, never per plan.
	rt.view = e.readViewFor(s)
	rt.frame = rt.live
	set, err := p.run(rt)
	rt.end()
	if err != nil {
		return nil, err
	}
	return &Result{Set: set, Stats: rt.stats}, nil
}

// end drops what the run referenced — session, arguments, row images — so a
// cached plan pins nothing between executions; capacity stays.
func (rt *runState) end() {
	rt.s, rt.view, rt.args, rt.acts, rt.aggs = nil, readView{}, nil, nil, nil
	clear(rt.live)
	clear(rt.refs)
	clear(rt.keys)
	clear(rt.ktmp)
	clear(rt.aggv)
	clear(rt.accs)
	rt.refs, rt.keys, rt.order, rt.aggv, rt.accs = rt.refs[:0], rt.keys[:0], rt.order[:0], rt.aggv[:0], rt.accs[:0]
}

// count records a tail node's actual output for EXPLAIN ANALYZE.
func (p *Plan) count(rt *runState, kind opKind, n int) {
	if rt.acts == nil {
		return
	}
	for _, node := range p.tail {
		if node.kind == kind {
			rt.acts[node.id] = int64(n)
		}
	}
}

// bound evaluates LIMIT or OFFSET; absent reads as def.
func (rt *runState) bound(x *bexpr, what string, def int) (int, error) {
	if x == nil {
		return def, nil
	}
	v, err := x.eval(rt)
	if err != nil {
		return 0, fmt.Errorf("sqlengine: %s must be constant", what)
	}
	if v.Int() < 0 {
		return 0, fmt.Errorf("sqlengine: %s must not be negative", what)
	}
	return int(v.Int()), nil
}

// enter makes gathered entry i the frame bound expressions read.
func (rt *runState) enter(p *Plan, i int32) {
	nt, na := len(rt.live), len(p.aggs)
	rt.frame = rt.refs[int(i)*nt : (int(i)+1)*nt]
	rt.aggs = rt.aggv[int(i)*na : (int(i)+1)*na]
}

// sort.Interface over the output order, by the entries' sort keys.
func (rt *runState) Len() int      { return len(rt.order) }
func (rt *runState) Swap(i, j int) { rt.order[i], rt.order[j] = rt.order[j], rt.order[i] }
func (rt *runState) Less(i, j int) bool {
	return rt.less(rt.keysOf(rt.order[i]), rt.keysOf(rt.order[j]))
}

func (rt *runState) keysOf(i int32) []Value {
	return rt.keys[int(i)*len(rt.by) : (int(i)+1)*len(rt.by)]
}

func (rt *runState) less(a, b []Value) bool {
	for k, o := range rt.by {
		if c := Compare(a[k], b[k]); c != 0 {
			return (c < 0) != o.desc
		}
	}
	return false
}

// evalKeys computes the current frame's sort keys into dst.
func (rt *runState) evalKeys(dst []Value) ([]Value, error) {
	for _, o := range rt.by {
		v, err := o.x.eval(rt)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// run executes the tail over the source and materializes the result set.
func (p *Plan) run(rt *runState) (*ResultSet, error) {
	limit, err := rt.bound(p.limit, "LIMIT", -1)
	if err != nil {
		return nil, err
	}
	offset, err := rt.bound(p.offset, "OFFSET", 0)
	if err != nil {
		return nil, err
	}
	keep := -1 // entries the result can need; DISTINCT dedups before the limit
	if limit >= 0 && !p.distinct {
		keep = limit + offset
	}
	rt.src.reset()
	if p.aggregated {
		err = p.gatherGroups(rt)
	} else {
		err = p.gatherRows(rt, keep)
	}
	if err != nil {
		return nil, err
	}
	p.count(rt, opSort, len(rt.order))
	p.count(rt, opTopN, len(rt.order))

	out := rt.order
	if !p.distinct {
		out = window(out, offset, limit)
	}
	w := len(p.proj)
	vals := make([]Value, len(out)*w)
	rows := make([][]Value, len(out))
	for k, i := range out {
		rt.enter(p, i)
		row := vals[k*w : (k+1)*w : (k+1)*w]
		for j, x := range p.proj {
			if row[j], err = x.eval(rt); err != nil {
				return nil, err
			}
		}
		rows[k] = row
	}
	p.count(rt, opProject, len(rows))
	if p.distinct {
		rows = rt.dedupe(rows)
		p.count(rt, opDistinct, len(rows))
		rows = window(rows, offset, limit)
	}
	p.count(rt, opLimit, len(rows))
	rt.stats.RowsReturned = len(rows)
	return &ResultSet{Columns: p.cols, Rows: rows}, nil
}

// window applies OFFSET and LIMIT (-1: none) to a slice.
func window[T any](s []T, offset, limit int) []T {
	if offset >= len(s) {
		return s[:0]
	}
	s = s[offset:]
	if limit >= 0 && limit < len(s) {
		s = s[:limit]
	}
	return s
}

// gatherRows collects the frames of a non-aggregated SELECT, at most keep of
// them when keep ≥ 0. Without ORDER BY those are the first keep; with it they
// are the top keep of the stable sort order: entries arrive unsorted until
// the buffer fills, are sorted once, and from then on a row that cannot beat
// the worst survivor is dropped on its keys alone, while one that can takes
// the evicted entry's storage and is inserted behind its equals — ties lose
// to earlier rows, exactly as sorting everything would place them.
func (p *Plan) gatherRows(rt *runState, keep int) error {
	n, sorted := 0, false
	for {
		ok, err := rt.src.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if n == keep && len(rt.by) == 0 {
			if !p.joins {
				break
			}
			continue
		}
		if rt.ktmp, err = rt.evalKeys(rt.ktmp[:0]); err != nil {
			return err
		}
		if n < keep || keep < 0 {
			rt.refs = append(rt.refs, rt.live...)
			rt.keys = append(rt.keys, rt.ktmp...)
			rt.order = append(rt.order, int32(n))
			if n++; n == keep && len(rt.by) > 0 {
				sort.Stable(rt)
				sorted = true
			}
			continue
		}
		if keep == 0 || !rt.less(rt.ktmp, rt.keysOf(rt.order[n-1])) {
			continue
		}
		slot := rt.order[n-1] // evict the worst; its storage takes the new row
		pos := sort.Search(n-1, func(i int) bool { return rt.less(rt.ktmp, rt.keysOf(rt.order[i])) })
		copy(rt.order[pos+1:], rt.order[pos:n-1])
		rt.order[pos] = slot
		copy(rt.refs[int(slot)*len(rt.live):], rt.live)
		copy(rt.keysOf(slot), rt.ktmp)
	}
	if !sorted && len(rt.by) > 0 {
		sort.Stable(rt)
	}
	return nil
}

// gatherGroups folds the source into one entry per group, in first-seen
// order: the group's first row images (what non-aggregate expressions read)
// and one accumulator per aggregate call. Groups that pass HAVING get their
// sort keys and are stably sorted.
func (p *Plan) gatherGroups(rt *runState) error {
	na := len(p.aggs)
	if rt.groups == nil {
		rt.groups = map[string]int32{}
	}
	clear(rt.groups)
	newGroup := func() {
		rt.refs = append(rt.refs, rt.live...)
		for j := 0; j < na; j++ {
			rt.accs = append(rt.accs, aggAcc{})
		}
	}
	ng := 0
	for {
		ok, err := rt.src.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		g := int32(0)
		if len(p.groupBy) > 0 {
			rt.kb = rt.kb[:0]
			for _, x := range p.groupBy {
				v, err := x.eval(rt)
				if err != nil {
					return err
				}
				rt.kb = v.hashKey().appendTo(rt.kb)
			}
			if g, ok = rt.groups[string(rt.kb)]; !ok {
				g = int32(ng)
				rt.groups[string(rt.kb)] = g
			}
		}
		if int(g) == ng {
			newGroup()
			ng++
		}
		accs := rt.accs[int(g)*na : (int(g)+1)*na]
		for j := range p.aggs {
			spec := &p.aggs[j]
			if spec.star {
				accs[j].count++
				continue
			}
			v, err := spec.arg.eval(rt)
			if err != nil {
				return err
			}
			accs[j].add(v, spec.distinct)
		}
	}
	if ng == 0 && len(p.groupBy) == 0 {
		// A global aggregate over no rows is one group of NULL columns.
		clear(rt.live)
		newGroup()
		ng = 1
	}
	for i := range rt.accs {
		rt.aggv = append(rt.aggv, rt.accs[i].result(p.aggs[i%na].fn))
	}
	for g := int32(0); int(g) < ng; g++ {
		rt.enter(p, g)
		var err error
		if rt.keys, err = rt.evalKeys(rt.keys); err != nil {
			return err
		}
		if p.having != nil {
			v, err := p.having.eval(rt)
			if err != nil {
				return err
			}
			if v.IsNull() || !v.Bool() {
				continue
			}
		}
		rt.order = append(rt.order, g)
	}
	p.count(rt, opHashAgg, len(rt.order))
	if len(rt.by) > 0 {
		sort.Stable(rt)
	}
	return nil
}

// dedupe drops rows equal to an earlier one, in place.
func (rt *runState) dedupe(rows [][]Value) [][]Value {
	if rt.groups == nil {
		rt.groups = map[string]int32{}
	}
	clear(rt.groups)
	out := rows[:0]
	for _, r := range rows {
		rt.kb = rt.kb[:0]
		for _, v := range r {
			rt.kb = v.hashKey().appendTo(rt.kb)
		}
		if _, dup := rt.groups[string(rt.kb)]; !dup {
			rt.groups[string(rt.kb)] = 0
			out = append(out, r)
		}
	}
	return out
}
