package sqlengine

import (
	"fmt"
	"slices"
	"sort"
)

// The tail turns the frames the source iterators stream into the result set,
// doing the work of the plan's presentation nodes (hash_agg, project, sort,
// topn, distinct, limit) in three steps over plan-owned scratch:
//
//	gather  pull frames and keep what the result can need, by reference: the
//	        row images of each surviving row (bounded to LIMIT+OFFSET), or one
//	        entry per group with its accumulators folded as rows arrive
//	order   bounded top-N while gathering, or one sort after it, both by the
//	        order a stable sort of every row would give (before)
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
	agg      aggKind
	star     bool // COUNT(*)
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
	seen     keyMap[struct{}] // DISTINCT values folded so far
}

func (a *aggAcc) add(v *Value, distinct bool) {
	if v.IsNull() {
		return
	}
	if distinct {
		k := v.hashKey()
		if _, dup := a.seen.get(k); dup {
			return
		}
		a.seen.put(k, struct{}{})
	}
	a.count++
	a.anyFloat = a.anyFloat || v.Kind() == KindFloat
	a.sumF += v.Float()
	a.sumI += v.Int()
	if a.min.IsNull() || compare(v, &a.min) < 0 {
		a.min = *v
	}
	if a.max.IsNull() || compare(v, &a.max) > 0 {
		a.max = *v
	}
}

func (a *aggAcc) result(agg aggKind) Value {
	switch {
	case agg == aggCount:
		return NewInt(a.count)
	case agg == aggMin:
		return a.min
	case agg == aggMax:
		return a.max
	case a.count == 0:
		return Null
	case agg == aggAvg:
		return NewFloat(a.sumF / float64(a.count))
	case a.anyFloat:
		return NewFloat(a.sumF)
	}
	return NewInt(a.sumI)
}

// execPlan runs a plan into out. acts, when non-nil, receives per-node output
// counts for EXPLAIN ANALYZE.
func (e *Engine) execPlan(s *Session, p *Plan, args []Value, acts []int64, out *Reply) (*Result, error) {
	if len(args) != p.nparams {
		return nil, fmt.Errorf("sqlengine: statement has %d parameters but %d arguments given", p.nparams, len(args))
	}
	rt := &p.rt
	rt.e, rt.s, rt.args, rt.acts = e, s, args, acts
	rt.stats = ExecStats{Class: ClassRead}
	// Visibility is decided per execution, never per plan.
	rt.view = e.readViewFor(s)
	rt.frame = rt.live
	if out.space == nil && out.Set.Columns != nil { // a read answered in out before: its rows end here
		out.space = &e.spaces.take(1)[0]
		out.space.rows = out.Set.Rows[:cap(out.Set.Rows)]
	}
	err := p.run(rt, &out.Set, out.space)
	rt.end()
	if err != nil {
		return nil, err
	}
	out.Result = Result{Set: &out.Set, Stats: rt.stats}
	return &out.Result, nil
}

// end drops what the run referenced — session, arguments, row images — so a
// cached plan pins nothing between executions; capacity stays.
func (rt *runState) end() {
	rt.s, rt.view, rt.args, rt.acts, rt.aggs = nil, readView{}, nil, nil, nil
	clear(rt.live)
	clear(rt.refs)
	clear(rt.keys)
	clear(rt.tuple)
	clear(rt.aggv)
	clear(rt.accs)
	rt.groups.clear()
	rt.refs, rt.keys, rt.seq, rt.order, rt.aggv, rt.accs = rt.refs[:0], rt.keys[:0], rt.seq[:0], rt.order[:0], rt.aggv[:0], rt.accs[:0]
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

// before reports whether entry a precedes entry b in the output: by the sort
// keys and, between equal keys, by arrival. That is where a stable sort of
// every row in arrival order would put them, spelled as a total order, so
// whatever orders by it — the bounded buffer, the final sort — produces
// exactly that order.
func (rt *runState) before(a, b int32) bool {
	nk := len(rt.by)
	ka, kb := rt.keys[int(a)*nk:][:nk], rt.keys[int(b)*nk:][:nk]
	for k := range ka {
		if c := compare(&ka[k], &kb[k]); c != 0 {
			return (c < 0) != rt.by[k].desc
		}
	}
	return rt.seq[a] < rt.seq[b]
}

// sort.Interface over the output order.
func (rt *runState) Len() int           { return len(rt.order) }
func (rt *runState) Swap(i, j int)      { rt.order[i], rt.order[j] = rt.order[j], rt.order[i] }
func (rt *runState) Less(i, j int) bool { return rt.before(rt.order[i], rt.order[j]) }

// sortKeys computes the current frame's sort keys into dst.
func (rt *runState) sortKeys(dst []Value) error {
	for k := range rt.by {
		if err := rt.by[k].x.into(rt, &dst[k]); err != nil {
			return err
		}
	}
	return nil
}

// run executes the tail over the source and materializes the result set,
// its values and row headers in sp — reused when they fit, carved from the
// plan's chunks and kept there when they do not — or, with sp nil, in
// storage of their own, carved from the plan's chunks.
func (p *Plan) run(rt *runState, set *ResultSet, sp *rowSpace) error {
	limit, err := rt.bound(p.limit, "LIMIT", -1)
	if err != nil {
		return err
	}
	offset, err := rt.bound(p.offset, "OFFSET", 0)
	if err != nil {
		return err
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
		return err
	}
	p.count(rt, opSort, len(rt.order))
	p.count(rt, opTopN, len(rt.order))

	out := rt.order
	if !p.distinct {
		out = window(out, offset, limit)
	}
	w := len(p.proj)
	var vals []Value
	var rows [][]Value
	if sp != nil {
		sp.vals, sp.rows = fit(&rt.vals, sp.vals, len(out)*w), fit(&rt.rows, sp.rows, len(out))
		vals, rows = sp.vals, sp.rows
	} else {
		vals, rows = carve(&rt.vals, len(out)*w), carve(&rt.rows, len(out))
	}
	for k, i := range out {
		rt.enter(p, i)
		row := vals[k*w : (k+1)*w : (k+1)*w]
		for j, x := range p.proj {
			if err := x.into(rt, &row[j]); err != nil {
				return err
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
	*set = ResultSet{Columns: p.cols, Rows: rows}
	return nil
}

// extend returns s with n more elements: zero, fresh from the allocator or as
// end left them.
func extend[T any](s []T, n int) []T { return slices.Grow(s, n)[:len(s)+n] }

// fit returns s with length n, in s's storage when it has the room and
// carved from c when it has not; never nil, like the make it stands for.
func fit[T any](c *slab[T], s []T, n int) []T {
	if s == nil || cap(s) < n {
		return carve(c, n)
	}
	return s[:n]
}

// resultRunMax is the most T's a result takes from a plan's chunk: a larger
// slice is made for itself, so a full chunk leaves less than an eighth of
// itself unused when a take does not fit in its tail.
const resultRunMax = slabMax / 8

// carve returns n T's of a result that owns its storage: taken from s, or
// made for themselves when there are none or more than resultRunMax; never
// nil, like the make it stands for.
func carve[T any](s *slab[T], n int) []T {
	if n == 0 || n > resultRunMax {
		return make([]T, n)
	}
	return s.take(n)
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
// them when keep ≥ 0. Without ORDER BY those are the first keep. With it they
// are the first keep of the output order (before): entries arrive unsorted
// until the buffer fills and are sorted once; from then on a row's keys are
// computed straight into the spare slot and decide on their own whether the
// row is kept (topN), in which case the slot of the entry it pushes out
// becomes the spare.
func (p *Plan) gatherRows(rt *runState, keep int) error {
	nt, nk := len(rt.live), len(rt.by)
	n, at, sorted := 0, 0, false // the buffer is rt.order[at:at+n]
	free := 0                    // the slot the next row is written to
	for arrival := int32(0); ; arrival++ {
		ok, err := rt.src.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if n == keep && nk == 0 {
			if !p.joins {
				break
			}
			continue
		}
		if free == len(rt.seq) {
			rt.seq = append(rt.seq, 0)
			rt.keys = extend(rt.keys, nk)
			rt.refs = extend(rt.refs, nt)
		}
		rt.seq[free] = arrival
		if err := rt.sortKeys(rt.keys[free*nk : (free+1)*nk]); err != nil {
			return err
		}
		row := int32(free)
		switch {
		case n < keep || keep < 0:
			rt.order = append(rt.order, row)
			n++
			free = n
		case keep == 0:
			continue
		default:
			if !sorted {
				sort.Sort(rt)
				rt.order = append(rt.order, rt.order...) // the buffer, and as much room in front of it
				at, sorted = n, true
			}
			var out int32
			if at, out = rt.topN(row, at, n); out == row {
				continue
			}
			free = int(out)
		}
		for t, img := range rt.live {
			rt.refs[int(row)*nt+t] = img
		}
	}
	if sorted {
		rt.order = rt.order[:copy(rt.order, rt.order[at:at+n])]
	} else if nk > 0 {
		sort.Sort(rt)
	}
	return nil
}

// topN puts entry row where it belongs in the sorted buffer rt.order[at:at+n]
// and returns the buffer's new start and the entry that no longer fits: row
// itself when it follows everything kept.
//
// The row is asked first whether it leads — a table read in insertion order
// for its newest rows, the home page, is the commonest top-N there is — then
// whether it loses, and only then searched for. The array has room in front of
// the buffer, which a leading row takes, so that row costs one comparison and
// no move; one that loses costs two; any other at most 2 + log2(n) and a move
// of the entries behind it. What order rows are stored in decides which of
// the three a scan mostly pays, and they are within a comparison of each
// other. A row that ties with a kept one arrived after it and goes behind it,
// as it would in a stable sort of everything.
func (rt *runState) topN(row int32, at, n int) (int, int32) {
	h := rt.order[at : at+n]
	last := h[n-1]
	if rt.before(row, h[0]) {
		if at == 0 { // out of room: the buffer moves back to the far end
			at = n
			copy(rt.order[at:], h)
		}
		at--
		rt.order[at] = row
		return at, last
	}
	if !rt.before(row, last) {
		return at, row
	}
	lo, hi := 1, n-1 // row goes in front of the first entry of h[lo:hi] it precedes, or at hi
	for lo < hi {
		if mid := (lo + hi) / 2; rt.before(row, h[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(h[lo+1:], h[lo:])
	h[lo] = row
	return at, last
}

// file returns the number tuple is filed under in the run's table, which is n
// — filing it — when the table has not seen it. One value is keyed by its
// hashKey, the key index maps and hash joins use; a longer tuple renders into
// one, and only a new entry makes a string of the rendering.
func (rt *runState) file(tuple []Value, n int32) int32 {
	if len(tuple) == 1 {
		k := tuple[0].hashKey()
		if g, ok := rt.groups.get(k); ok {
			return g
		}
		rt.groups.put(k, n)
		return n
	}
	rt.kb = rt.kb[:0]
	for i := range tuple {
		rt.kb = tuple[i].hashKey().appendTo(rt.kb)
	}
	if g, ok := rt.groups.composite(rt.kb); ok {
		return g
	}
	rt.groups.put(hashKey{kind: 'c', s: string(rt.kb)}, n)
	return n
}

// gatherGroups folds the source into one entry per group, in first-seen
// order: the group's first row images (what non-aggregate expressions read)
// and one accumulator per aggregate call. Groups that pass HAVING get their
// sort keys and are sorted.
func (p *Plan) gatherGroups(rt *runState) error {
	na := len(p.aggs)
	newGroup := func() {
		rt.refs = append(rt.refs, rt.live...)
		rt.accs = extend(rt.accs, na)
	}
	ng := 0
	var v Value
	for {
		ok, err := rt.src.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		g := 0
		if len(p.groupBy) > 0 {
			for j, x := range p.groupBy {
				if err := x.into(rt, &rt.tuple[j]); err != nil {
					return err
				}
			}
			g = int(rt.file(rt.tuple, int32(ng)))
		}
		if g == ng {
			newGroup()
			ng++
		}
		accs := rt.accs[g*na : (g+1)*na]
		for j := range p.aggs {
			spec := &p.aggs[j]
			if spec.star {
				accs[j].count++
				continue
			}
			if err := spec.arg.into(rt, &v); err != nil {
				return err
			}
			accs[j].add(&v, spec.distinct)
		}
	}
	if ng == 0 && len(p.groupBy) == 0 {
		// A global aggregate over no rows is one group of NULL columns.
		clear(rt.live)
		newGroup()
		ng = 1
	}
	for i := range rt.accs {
		rt.aggv = append(rt.aggv, rt.accs[i].result(p.aggs[i%na].agg))
	}
	nk := len(rt.by)
	for g := int32(0); int(g) < ng; g++ {
		rt.enter(p, g)
		rt.seq = append(rt.seq, g)
		rt.keys = extend(rt.keys, nk)
		if err := rt.sortKeys(rt.keys[int(g)*nk:]); err != nil {
			return err
		}
		if p.having != nil {
			ok, err := p.having.holds(rt)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		rt.order = append(rt.order, g)
	}
	p.count(rt, opHashAgg, len(rt.order))
	if nk > 0 {
		sort.Sort(rt)
	}
	return nil
}

// dedupe drops rows equal to an earlier one, in place.
func (rt *runState) dedupe(rows [][]Value) [][]Value {
	rt.groups.clear()
	out := rows[:0]
	for _, r := range rows {
		if n := int32(len(out)); rt.file(r, n) == n {
			out = append(out, r)
		}
	}
	return out
}
