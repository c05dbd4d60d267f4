package sim

// Queue is an unbounded FIFO mailbox connecting simulation processes.
// Producers never block; consumers block in Get until an item arrives or the
// queue is closed. Network links deliver messages by scheduling a callback
// that Puts into the destination queue.
type Queue[T any] struct {
	env     *Env
	name    string
	items   Ring[T]
	waiters Ring[*Proc]
	closed  bool

	// High-water mark of queue depth, useful for relay-log backlog stats.
	maxDepth int
}

// NewQueue creates an empty open queue.
func NewQueue[T any](env *Env, name string) *Queue[T] {
	return &Queue[T]{env: env, name: name}
}

// Name returns the queue name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// MaxDepth returns the highest buffered depth observed.
func (q *Queue[T]) MaxDepth() int { return q.maxDepth }

// Put appends an item and wakes one waiting consumer. It may be called from
// any process or callback. Put on a closed queue drops the item silently
// (messages in flight to a crashed server disappear, like packets to a dead
// host).
func (q *Queue[T]) Put(v T) {
	if q.closed {
		return
	}
	q.items.Push(v)
	if q.items.Len() > q.maxDepth {
		q.maxDepth = q.items.Len()
	}
	if next, ok := q.waiters.Pop(); ok {
		q.env.scheduleProc(q.env.now, next)
	}
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false when the queue has been closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for q.items.Len() == 0 {
		if q.closed {
			return v, false
		}
		q.waiters.Push(p)
		p.wait(ParkQueue, q.name)
	}
	return q.items.Pop()
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) { return q.items.Pop() }

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) { return q.items.Peek() }

// Close marks the queue closed and wakes all waiting consumers; their Get
// calls return ok=false once the buffer drains. Further Puts are dropped.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for p, ok := q.waiters.Pop(); ok; p, ok = q.waiters.Pop() {
		q.env.scheduleProc(q.env.now, p)
	}
}
