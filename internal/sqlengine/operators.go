package sqlengine

// Source iterators execute a Plan's relational chain. The run state's frame
// is the current joined row: each operator stores the row image it produces
// in frame[slot] and pulls from its outer input, and every bound expression
// reads columns as frame[slot][col], so rows are never copied while they
// flow. A true next() leaves every slot at or below the operator populated;
// the tail (tail.go) consumes the frames.
//
// Iterators are built once per plan and reset per execution. Plans never fix
// visibility: at execution time a latest-version reader uses heaps and
// indexes directly, while a snapshot reader (behind the latest commit, or
// with concurrent provisional writers) degrades every index access to a
// chain-resolving visible-image scan. The recheck filters the planner leaves
// on index and join nodes keep degraded access exact.

// runState is a plan's execution state: what one run reads (engine, session,
// arguments, read view), what it counts (ExecStats, EXPLAIN ANALYZE actuals)
// and the scratch the operators reuse from run to run. Row images are
// immutable under MVCC and a run holds Engine.mu, so holding references to
// them for the length of one run is safe; end drops them.
type runState struct {
	e     *Engine
	s     *Session
	args  []Value
	view  readView // chains set: chain-resolving visibility scan required
	stats ExecStats
	acts  []int64 // EXPLAIN ANALYZE per-node output counts (nil otherwise)

	live  [][]Value // the frame the source iterators fill, slot → row image
	frame [][]Value // what bound expressions read: live, or a gathered entry
	aggs  []Value   // the current group's finalized aggregates
	null  Value     // what a column of a LEFT JOIN miss reads as, by reference
	src   rowIter

	// Tail scratch (tail.go): gathered entries — row images, sort keys and
	// arrival numbers in flat arrays indexed by entry — the output order over
	// them, per-group accumulators, and the table GROUP BY and DISTINCT file
	// tuples in.
	refs   [][]Value
	keys   []Value
	seq    []int32
	order  []int32
	by     []orderKey
	accs   []aggAcc
	aggv   []Value
	groups keyMap[int32]
	tuple  []Value // the current row's GROUP BY values
	kb     []byte  // a tuple of several values, rendered
}

func (rt *runState) emit(n *planNode) {
	if rt.acts != nil {
		rt.acts[n.id]++
	}
}

// rowIter is the source operator interface: reset rewinds for a new run,
// next advances to the following row, returning false at end of stream.
type rowIter interface {
	reset()
	next() (bool, error)
}

// buildIter constructs the iterator pipeline for a plan chain.
func buildIter(rt *runState, n *planNode) rowIter {
	switch n.kind {
	case opScan, opIndexScan:
		return &scanIter{rt: rt, n: n}
	case opFilter:
		return &filterIter{rt: rt, n: n, input: buildIter(rt, n.input)}
	default:
		return &joinIter{rt: rt, n: n, input: buildIter(rt, n.input)}
	}
}

// onceIter is the source of a table-less SELECT: one empty row.
type onceIter struct{ done bool }

func (it *onceIter) reset() { it.done = false }
func (it *onceIter) next() (bool, error) {
	first := !it.done
	it.done = true
	return first, nil
}

// pass evaluates a conjunct list against the current frame, stopping at the
// first non-true conjunct (matching AND short-circuit).
func (rt *runState) pass(filters []*bexpr) (bool, error) {
	for _, f := range filters {
		if ok, err := f.holds(rt); !ok {
			return false, err
		}
	}
	return true, nil
}

// scanIter is the driving access: full heap scan or index-equality bucket,
// degraded to a visible-image scan for snapshot readers. It charges its
// candidate rows when the run opens it, before the first pull — which is why
// a LIMIT over a lone scan may stop pulling early without moving ExecStats.
type scanIter struct {
	rt  *runState
	n   *planNode
	cur rowCursor
}

func (it *scanIter) reset() {
	if it.rt.open(it.n, it.n.kind == opIndexScan, &it.cur) {
		it.rt.stats.UsedIndex = true
	}
}

// open points c at the candidates of n's access and charges them: the index
// bucket of n.eq when byIndex, else — or for a snapshot reader, indexes
// covering only latest images — every row the read view must consider; the
// node's filters, which recheck the equality, keep the degraded access exact.
// A key evaluation error also falls back to the scan and surfaces through the
// recheck. Reports whether the index answered.
func (rt *runState) open(n *planNode, byIndex bool, c *rowCursor) bool {
	indexed := false
	if byIndex && !rt.view.chains {
		if v, err := n.eq.eval(rt); err == nil {
			indexed = n.tbl.store.probe(n.eqCol, v, c)
		}
	}
	if !indexed {
		n.tbl.store.scan(rt.view, c)
	}
	rt.stats.RowsExamined += c.len()
	return indexed
}

func (it *scanIter) next() (bool, error) {
	rt, n := it.rt, it.n
	for {
		vals, more := it.cur.next()
		if !more {
			return false, nil
		}
		rt.live[n.slot] = vals
		ok, err := rt.pass(n.where)
		if err != nil {
			return false, err
		}
		if ok {
			rt.emit(n)
			return true, nil
		}
	}
}

// filterIter applies residual conjuncts over fully joined rows.
type filterIter struct {
	rt    *runState
	n     *planNode
	input rowIter
}

func (it *filterIter) reset() { it.input.reset() }

func (it *filterIter) next() (bool, error) {
	for {
		ok, err := it.input.next()
		if err != nil || !ok {
			return false, err
		}
		pass, err := it.rt.pass(it.n.where)
		if err != nil {
			return false, err
		}
		if pass {
			it.rt.emit(it.n)
			return true, nil
		}
	}
}

// joinIter executes nl_join, inl_join and hash_join nodes. All three share
// one loop: per outer row, produce the candidate inner rows, run the node's
// filters on each pair, and null-extend on a LEFT join with no survivor.
// Candidate production is what differs:
//
//   - nl_join: the whole inner heap per outer row.
//   - inl_join: the index-equality bucket for the outer key; a key
//     evaluation error falls back to the full heap (the residual equality
//     filter then reports the error against the first pair).
//   - hash_join: a one-time build over the inner rows keyed by the join
//     column, probed per outer row. Rows sharing a key are chained in heap
//     order, so output order is identical to the nested loop's.
//
// A snapshot reader degrades nl/inl to a nested loop over the inner table's
// visible images (resolved once, reused for every outer row); hash builds
// from the same visible images and needs no further degradation.
type joinIter struct {
	rt    *runState
	n     *planNode
	input rowIter

	// inner-side candidate sources, resolved lazily once per run
	images [][]Value     // the hash build side
	loaded bool          // images (hash) or cur's visible images (snapshot nl/inl) are this run's
	heads  keyMap[int32] // hash build: key → first image of its chain
	chain  []int32       // next image with the same key, -1 at the end

	// per-outer iteration state
	cur     rowCursor // nl/inl candidates
	hit     int32     // hash probe cursor into images, -1 when exhausted
	active  bool      // an outer row is in flight
	matched bool      // it produced at least one surviving pair
}

func (it *joinIter) reset() {
	it.input.reset()
	it.loaded, it.active = false, false
}

// build constructs the hash table over the inner side. NULL keys never join,
// so they are left out of the table entirely. Walking the images backwards
// and pushing each onto the front of its chain leaves every chain in heap
// order.
func (it *joinIter) build() {
	it.loaded = true
	it.images = it.n.tbl.store.images(it.rt.view, it.images[:0])
	images := it.images
	it.rt.stats.RowsExamined += len(images)
	it.heads.clear()
	if cap(it.chain) < len(images) {
		it.chain = make([]int32, len(images))
	}
	it.chain = it.chain[:len(images)]
	for i := len(images) - 1; i >= 0; i-- {
		it.chain[i] = -1
		if v := images[i][it.n.eqCol]; !v.IsNull() {
			k := v.hashKey()
			if next, ok := it.heads.get(k); ok {
				it.chain[i] = next
			}
			it.heads.put(k, int32(i))
		}
	}
}

// beginOuter resolves the candidate inner rows for the outer row currently
// in the frame.
func (it *joinIter) beginOuter() error {
	rt, n := it.rt, it.n
	it.hit, it.matched = -1, false
	switch {
	case n.kind == opHashJoin:
		if !it.loaded {
			it.build()
		}
		if it.heads.len() == 0 {
			return nil // empty build: probe keys need not be evaluated
		}
		v, err := n.eq.eval(rt)
		if err != nil || v.IsNull() {
			return err
		}
		if first, ok := it.heads.get(v.hashKey()); ok {
			it.hit = first
		}
	case rt.view.chains && it.loaded:
		// nl/inl degrade to a nested loop over the visible images, resolved
		// once per run.
		it.cur.rewind()
		rt.stats.RowsExamined += it.cur.len()
	default:
		rt.open(n, n.kind == opINLJoin, &it.cur)
		it.loaded = rt.view.chains
	}
	return nil
}

// candidate returns the next inner row image for the outer row in flight.
func (it *joinIter) candidate() ([]Value, bool) {
	if it.hit >= 0 {
		vals := it.images[it.hit]
		it.hit = it.chain[it.hit]
		it.rt.stats.RowsExamined++
		return vals, true
	}
	return it.cur.next()
}

func (it *joinIter) next() (bool, error) {
	rt, n := it.rt, it.n
	for {
		if !it.active {
			ok, err := it.input.next()
			if err != nil || !ok {
				return false, err
			}
			if err := it.beginOuter(); err != nil {
				return false, err
			}
			it.active = true
		}
		for vals, more := it.candidate(); more; vals, more = it.candidate() {
			rt.live[n.slot] = vals
			ok, err := rt.pass(n.where)
			if err != nil {
				return false, err
			}
			if ok {
				it.matched = true
				rt.emit(n)
				return true, nil
			}
		}
		it.active = false
		if !it.matched && n.left {
			rt.live[n.slot] = nil
			rt.emit(n)
			return true, nil
		}
	}
}
