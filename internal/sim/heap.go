package sim

import "math/bits"

// eventHeap is the kernel's queue of future events (those due at the
// current instant ride the same-instant FIFO beside it): a 4-ary min-heap
// ordered by (at, seq). seq is unique, so pops come in the one order the
// keys allow, whatever the layout. An entry holds its key beside the event,
// so sifting never dereferences an event.
//
// Cancellation only flags the event (the canceller holds no position in the
// heap): a tombstone is discarded when it reaches the root, or by compact
// once tombstones outnumber live events, which bounds the heap at 2× the
// live population when timers are mostly cancelled (Signal.WaitTimeout).
type eventHeap struct {
	heap      []heapEntry
	live      int // non-cancelled events
	cancelled int // tombstones still in the heap

	// free recycles a discarded tombstone back to the Env's event pool.
	free func(*event)
}

// heapEntry is one queued event under its (at, seq) key.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *event
}

// compactFloor is the minimum heap length before compact runs; below it
// the tombstones cost next to nothing and rebuilding would thrash.
const compactFloor = 64

// eventBefore is the kernel's total event order: ascending time, ties
// broken by schedule sequence.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventHeap) push(ev *event) {
	q.heap = append(q.heap, heapEntry{})
	q.live++
	q.rise(len(q.heap)-1, 0, heapEntry{ev.at, ev.seq, ev})
}

// peek returns the earliest live event without removing it, or nil when
// none remain, recycling the tombstones it finds at the root on the way.
func (q *eventHeap) peek() *event {
	for len(q.heap) > 0 && q.heap[0].ev.cancelled {
		q.free(q.pop())
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0].ev
}

// pop removes and returns the root: the event peek just returned, or a
// tombstone peek discards. The last entry fills the root's place.
func (q *eventHeap) pop() *event {
	n := len(q.heap) - 1
	ev, last := q.heap[0].ev, q.heap[n]
	q.heap[n] = heapEntry{}
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0, last)
	}
	if ev.cancelled {
		q.cancelled--
	} else {
		q.live--
	}
	return ev
}

// cancel marks ev as a tombstone. The caller guarantees ev is still queued
// and not yet cancelled (generation-checked by Env.cancelEvent).
func (q *eventHeap) cancel(ev *event) {
	ev.cancelled = true
	q.live--
	q.cancelled++
	if len(q.heap) >= compactFloor && q.cancelled > q.live {
		q.compact()
	}
}

// compact drops every tombstone, recycling it, and re-heapifies what is
// left. It runs when tombstones outnumber live events, so its amortized
// cost per cancellation is O(1).
func (q *eventHeap) compact() {
	kept := q.heap[:0]
	for _, x := range q.heap {
		if x.ev.cancelled {
			q.free(x.ev)
		} else {
			kept = append(kept, x)
		}
	}
	clear(q.heap[len(kept):])
	q.heap = kept
	q.cancelled = 0
	for i := (len(kept) - 2) / 4; i >= 0 && len(kept) > 1; i-- {
		q.down(i, kept[i])
	}
}

// rise places x in the hole at i, or above it, no higher than top, while
// the parent comes after x.
func (q *eventHeap) rise(i, top int, x heapEntry) {
	h := q.heap
	for i > top {
		p := (i - 1) / 4
		if lessBit(x, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down places x in the hole at i or below it. The hole sinks to a leaf along
// the earliest child of each node, then x rises from there: x, a former
// leaf, usually belongs near the bottom, and the hole sinks without comparing
// with x, so no branch depends on the keys until x rises. A node with fewer
// than four children names its last child again in the missing places.
func (q *eventHeap) down(i int, x heapEntry) {
	h := q.heap
	top := i
	last := len(h) - 1
	for c := 4*i + 1; c <= last; c = 4*i + 1 {
		i = earlier(h, earlier(h, c, min(c+1, last)), earlier(h, min(c+2, last), min(c+3, last)))
		h[(i-1)/4] = h[i]
	}
	q.rise(i, top, x)
}

// earlier returns whichever of i and j indexes the entry that comes first,
// without a branch: at a node's children the outcome is a coin toss, which
// a branch predictor loses half the time.
func earlier(h []heapEntry, i, j int) int {
	return i + (j-i)&-int(lessBit(h[j], h[i]))
}

// lessBit is 1 when a comes before b, else 0: the borrow out of the 128-bit
// subtraction (a.at, a.seq) − (b.at, b.seq), at's sign bit flipped so that
// its unsigned order is its signed one: eventBefore's order, without a branch.
func lessBit(a, b heapEntry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^(1<<63), uint64(b.at)^(1<<63), borrow)
	return borrow
}
