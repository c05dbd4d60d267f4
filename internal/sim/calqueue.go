package sim

// calQueue is the kernel's event queue: a calendar queue (Brown 1988) — a
// bucketed time wheel whose bucket count and width adapt to the live event
// population, giving O(1) amortized push/pop against the binary heap's
// O(log n). Ordering is the exact total order the old heap used: ascending
// (at, seq), so the swap is invisible to the determinism contract — two
// events at one instant still fire in schedule order.
//
// Cancelled events are tombstones: cancellation only flags the event (the
// canceller holds no position handle), and tombstones are discarded when
// they surface at a bucket head — or in bulk by compact() once they
// outnumber live events, which bounds queue length at 2× the live
// population under cancel-heavy workloads (timeout timers that almost
// always get cancelled; see Signal.WaitTimeout).
type calQueue struct {
	buckets [][]*event
	mask    int  // len(buckets)-1; bucket count is a power of two
	width   Time // virtual-time span of one bucket

	// Scan cursor: the earliest live event is at or after the slice
	// [top-width, top) that bucket cur owns this "year". locate advances
	// the cursor bucket by bucket; push rewinds it when an earlier event
	// arrives.
	cur int
	top Time

	size      int // events stored, tombstones included
	live      int // non-cancelled events
	cancelled int // tombstones still buried in buckets

	// free recycles a discarded tombstone back to the Env's event pool.
	free func(*event)
}

// calMinBuckets is the initial and minimum bucket count.
const calMinBuckets = 8

// calCompactFloor is the minimum total size before compact() runs; below
// it the tombstone scan cost is trivial and rebuilding would thrash.
const calCompactFloor = 64

// calFirstCap is how many events each bucket holds before it needs an array
// of its own. The width a resize derives aims at one event a bucket, but a
// Cloudstone cell's buckets hold several: with room for only two, a cell's
// run allocated more for buckets outgrowing their share than it had before
// the shared array.
const calFirstCap = 8

func (cq *calQueue) init() {
	cq.buckets = newBuckets(calMinBuckets)
	cq.mask = calMinBuckets - 1
	cq.width = Time(1e6) // 1ms starting guess; resize() re-derives it
	cq.cur = 0
	cq.top = cq.width
}

// newBuckets returns n empty buckets whose first calFirstCap events share
// one array, so building a table costs two allocations, not one per bucket
// that fills. A bucket that outgrows its share moves to an array of its own.
func newBuckets(n int) [][]*event {
	table := make([][]*event, n)
	first := make([]*event, n*calFirstCap)
	for i := range table {
		table[i] = first[i*calFirstCap : i*calFirstCap : (i+1)*calFirstCap]
	}
	return table
}

// bucketOf maps a timestamp to its bucket index.
func (cq *calQueue) bucketOf(at Time) int {
	return int(uint64(at)/uint64(cq.width)) & cq.mask
}

// eventBefore is the kernel's total event order: ascending time, ties
// broken by schedule sequence.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, keeping its bucket sorted by (at, seq).
func (cq *calQueue) push(ev *event) {
	if cq.buckets == nil {
		cq.init()
	}
	if cq.live >= 2*len(cq.buckets) {
		cq.resize(2 * len(cq.buckets))
	}
	cq.insert(ev)
	cq.size++
	cq.live++
	// An event earlier than the scan cursor's slice would be missed by the
	// forward scan: rewind the cursor onto its slice.
	if ev.at < cq.top-cq.width {
		cq.cur = cq.bucketOf(ev.at)
		cq.setTopFor(ev.at)
	}
}

// insert places ev into its bucket in (at, seq) order. Buckets hold O(1)
// events when the width matches the schedule density, so the insertion
// scan from the tail is cheap; a skewed distribution degrades to a longer
// sorted-list insert, never to wrong ordering.
func (cq *calQueue) insert(ev *event) {
	idx := cq.bucketOf(ev.at)
	b := append(cq.buckets[idx], ev)
	i := len(b) - 1
	for i > 0 && eventBefore(ev, b[i-1]) {
		b[i] = b[i-1]
		i--
	}
	b[i] = ev
	cq.buckets[idx] = b
}

// setTopFor positions the scan cursor's slice boundary just past at,
// saturating near the end of the timeline (events at ~MaxTime are found by
// the direct-search fallback instead of boundary arithmetic that would
// overflow).
func (cq *calQueue) setTopFor(at Time) {
	chunk := at / cq.width
	if chunk >= MaxTime/cq.width {
		cq.top = MaxTime
		return
	}
	cq.top = (chunk + 1) * cq.width
}

// removeAt deletes and returns the event at position pos of bucket idx.
func (cq *calQueue) removeAt(idx, pos int) *event {
	b := cq.buckets[idx]
	ev := b[pos]
	copy(b[pos:], b[pos+1:])
	b[len(b)-1] = nil
	cq.buckets[idx] = b[:len(b)-1]
	cq.size--
	return ev
}

// locate finds the earliest live event without removing it, returning the
// event and its bucket index ((nil, -1) when none remain). On return the
// event sits at the head of its bucket — tombstones ahead of it have been
// recycled — and the scan cursor covers it, so an immediately following
// locate or popLocated is O(1). This is what makes peek-then-step (the
// RunUntil loop) cost one scan, not two.
func (cq *calQueue) locate() (*event, int) {
	if cq.live == 0 {
		if cq.size > 0 {
			cq.drainTombstones()
		}
		return nil, -1
	}
	nb := len(cq.buckets)
	for i := 0; i < nb; i++ {
		b := cq.buckets[cq.cur]
		for len(b) > 0 && b[0].cancelled {
			cq.cancelled--
			cq.free(cq.removeAt(cq.cur, 0))
			b = cq.buckets[cq.cur]
		}
		if len(b) > 0 && b[0].at < cq.top {
			return b[0], cq.cur
		}
		cq.cur = (cq.cur + 1) & cq.mask
		if cq.top > MaxTime-cq.width {
			break // scanned up to the end of time: fall through
		}
		cq.top += cq.width
	}
	// Nothing inside a whole year's slices: the population is sparse at
	// this scale (or parked at MaxTime). Direct-search the global minimum
	// and land the cursor on it — the standard calendar-queue fallback.
	minIdx := -1
	var min *event
	for bi, b := range cq.buckets {
		for _, ev := range b {
			if ev.cancelled {
				continue
			}
			if min == nil || eventBefore(ev, min) {
				min, minIdx = ev, bi
			}
			break // bucket is sorted: its first live entry is its minimum
		}
	}
	if min == nil {
		return nil, -1 // unreachable while live > 0; keep the API safe
	}
	for cq.buckets[minIdx][0] != min {
		cq.cancelled--
		cq.free(cq.removeAt(minIdx, 0))
	}
	cq.cur = minIdx
	cq.setTopFor(min.at)
	return min, minIdx
}

// popLocated removes the event that locate just returned at the head of
// bucket idx.
func (cq *calQueue) popLocated(idx int) *event {
	ev := cq.removeAt(idx, 0)
	cq.live--
	cq.maybeShrink()
	return ev
}

// cancel marks ev as a tombstone. The caller guarantees ev is still queued
// and not yet cancelled (generation-checked by Env.cancelEvent).
func (cq *calQueue) cancel(ev *event) {
	ev.cancelled = true
	cq.live--
	cq.cancelled++
	if cq.size >= calCompactFloor && cq.cancelled > cq.live {
		cq.compact()
	}
}

// compact rebuilds the buckets without tombstones, recycling them.
// Triggered when tombstones outnumber live events, so the amortized cost
// per cancellation is O(1) while queue length stays within 2× the live
// population.
func (cq *calQueue) compact() {
	dropped := 0
	for bi, b := range cq.buckets {
		out := b[:0]
		for _, ev := range b {
			if ev.cancelled {
				cq.free(ev)
				dropped++
			} else {
				out = append(out, ev)
			}
		}
		for i := len(out); i < len(b); i++ {
			b[i] = nil
		}
		cq.buckets[bi] = out
	}
	cq.size -= dropped
	cq.cancelled = 0
	cq.maybeShrink()
}

// maybeShrink halves the bucket count when the live population has fallen
// well below it, so a drained queue stops paying year-scan costs sized for
// its peak. The 2×-grow / ¼-shrink hysteresis keeps resize off the steady
// state.
func (cq *calQueue) maybeShrink() {
	if len(cq.buckets) > calMinBuckets && cq.live < len(cq.buckets)/4 {
		n := len(cq.buckets) / 2
		if n < calMinBuckets {
			n = calMinBuckets
		}
		cq.resize(n)
	}
}

// resize rebuilds the calendar with n buckets, re-deriving the bucket
// width from the live events' spread so that each bucket holds O(1) of
// them. Determinism is untouched: bucket layout is a pure function of the
// queue contents, and ordering is re-derived from the same (at, seq) total
// order.
func (cq *calQueue) resize(n int) {
	old := cq.buckets
	events := make([]*event, 0, cq.live)
	minAt, maxAt := MaxTime, Time(0)
	for _, b := range old {
		for _, ev := range b {
			if ev.cancelled {
				cq.free(ev) // shed tombstones during the rebuild
				continue
			}
			events = append(events, ev)
			if ev.at < minAt {
				minAt = ev.at
			}
			if ev.at > maxAt && ev.at != MaxTime {
				maxAt = ev.at // ignore end-of-time sentinels for the width
			}
		}
	}
	width := cq.width
	if len(events) > 1 && maxAt > minAt {
		width = (maxAt - minAt) / Time(len(events))
		if width < 1 {
			width = 1
		}
	}
	if width <= 0 {
		width = Time(1e6)
	}
	cq.buckets = newBuckets(n)
	cq.mask = n - 1
	cq.width = width
	cq.size = len(events)
	cq.live = len(events)
	cq.cancelled = 0
	for _, ev := range events {
		cq.insert(ev)
	}
	if len(events) > 0 {
		cq.cur = cq.bucketOf(minAt)
		cq.setTopFor(minAt)
	} else {
		cq.cur = 0
		cq.top = width
	}
}

// drainTombstones empties a queue that holds only cancelled events,
// recycling them.
func (cq *calQueue) drainTombstones() {
	for bi, b := range cq.buckets {
		for i, ev := range b {
			cq.free(ev)
			b[i] = nil
		}
		cq.buckets[bi] = b[:0]
	}
	cq.size = 0
	cq.cancelled = 0
}
