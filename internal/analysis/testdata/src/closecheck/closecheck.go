// Fixture for the closecheck analyzer: discarded resource accessors (queue
// reads, pool borrows, span starts, statement preparation) are flagged; explicit
// discards and consumed handles are not. Dropped plain errors are errdrop's
// job and do not appear here.
package closecheck

import (
	"errors"
	"fmt"
	"strings"
)

type conn struct{}

type queue struct{}

func (queue) Get() (int, bool)    { return 0, false }
func (queue) TryGet() (int, bool) { return 0, false }
func (queue) Peek() (int, bool)   { return 0, false }
func (queue) Close()              {}

type pool struct{}

func (pool) Borrow() (conn, error) { return conn{}, nil }

type span struct{}

func (*span) End() {}

type engine struct{}

type statement struct{}

func (*statement) Run() error { return nil }

func (*engine) Prepare(sql string) (*statement, error) { return nil, nil }

type tracer struct{}

func (*tracer) StartSpan(stage, name string) *span            { return nil }
func (*tracer) StartLinked(stage, name string, ref int) *span { return nil }

func exec() error { return errors.New("boom") }

func bad(q queue, pl pool, tr *tracer, e *engine) {
	q.Get()                         // want `result of q\.Get dropped: the returned resource/message is lost`
	q.TryGet()                      // want `result of q\.TryGet dropped`
	q.Peek()                        // want `result of q\.Peek dropped`
	pl.Borrow()                     // want `result of pl\.Borrow dropped: the returned resource/message is lost`
	tr.StartSpan("client", "exec")  // want `result of tr\.StartSpan dropped`
	tr.StartLinked("apply", "a", 1) // want `result of tr\.StartLinked dropped`
	e.Prepare("SELECT 1")           // want `result of e\.Prepare dropped`
}

func ok(q queue, pl pool, tr *tracer, e *engine) {
	_, _ = q.Get() // explicit discard is visible and greppable
	_ = exec()     // dropped errors are errdrop's domain, not closecheck's
	exec()         // likewise: statement-position error drop is not a handle drop
	c, err := pl.Borrow()
	_ = c
	_ = err
	q.Close() // no results to drop
	sp := tr.StartSpan("client", "exec")
	sp.End()
	_ = tr.StartLinked("apply", "a", 1) // explicit discard allowed
	st, err := e.Prepare("SELECT 1")
	_ = err
	_ = st.Run()
	fmt.Println("non-handle calls are out of scope")
	var b strings.Builder
	b.WriteString("infallible")
	_ = b.String()
}

//cloudrepl:allow-closecheck fixture exercising the annotation escape hatch
func allowed(q queue) {
	q.Get()
}
