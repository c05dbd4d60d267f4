package sim

// Ring is a growable FIFO: the one queue under every mailbox, wait list and
// in-flight message list in the simulator. Push and Pop are O(1) and Push
// allocates only when the depth exceeds the buffer's capacity, so a queue
// that oscillates around a steady depth allocates nothing. Popped slots are
// zeroed, so the ring never keeps a delivered item reachable.
//
// A buffer grown by a burst is handed back once the burst is over: each time
// the ring runs empty it compares the deepest it has been since the previous
// time with its capacity, and reallocates down when a quarter would have
// done. A backlog that drains therefore keeps its array for one more busy
// period and no longer. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest item
	n    int // items held
	peak int // deepest n since the ring last ran empty
}

// ringMinCap is the capacity of a ring's first buffer, and the one it
// shrinks back to.
const ringMinCap = 8

// Len returns the number of items held.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.resize(max(2*len(r.buf), ringMinCap))
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
	if r.n > r.peak {
		r.peak = r.n
	}
}

// Pop removes and returns the oldest item; ok is false on an empty ring.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.head] = r.buf[r.head], zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 {
		r.ranEmpty()
	}
	return v, true
}

// Peek returns the oldest item without removing it.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// ranEmpty ends a busy period: the buffer is given up for a small one when
// the period never needed more than a quarter of it.
func (r *Ring[T]) ranEmpty() {
	r.head = 0
	if len(r.buf) > ringMinCap && r.peak <= len(r.buf)/4 {
		need := ringMinCap
		for need < 2*r.peak {
			need *= 2
		}
		r.buf = make([]T, need)
	}
	r.peak = 0
}

// resize moves the items, oldest first, into a buffer of the given capacity.
func (r *Ring[T]) resize(capacity int) {
	buf := make([]T, capacity)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.head = 0
	r.buf = buf
}
