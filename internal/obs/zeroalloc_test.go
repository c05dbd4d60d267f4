package obs

import (
	"testing"

	"cloudrepl/internal/sim"
)

// TestDisabledObsZeroAlloc pins the "observability off" contract: a nil
// Tracer and a nil Registry are the disabled state, and every operation on
// them (and on the nil instruments they hand out) must be allocation-free —
// the hot path pays nothing when tracing/metrics are not requested.
func TestDisabledObsZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	var tr *Tracer
	var reg *Registry
	origin := new(int)
	done := make(chan struct{})
	env.Go("probe", func(p *sim.Proc) {
		defer close(done)

		if a := testing.AllocsPerRun(100, func() {
			sp := tr.StartSpan(p, "stage", "name")
			sp.End(p)
		}); a > 0 {
			t.Errorf("nil tracer StartSpan/End allocates %.1f objects; want 0", a)
		}
		if a := testing.AllocsPerRun(100, func() {
			sp := tr.StartLinked(p, "stage", "name", Ref{})
			tr.LinkSeq(origin, 1, sp)
			sp.End(p)
		}); a > 0 {
			t.Errorf("nil tracer StartLinked/LinkSeq allocates %.1f objects; want 0", a)
		}

		c := reg.Counter("c")
		h := reg.Histogram("h")
		if a := testing.AllocsPerRun(100, func() {
			c.Inc()
			c.Add(2)
			h.Record(4500)
		}); a > 0 {
			t.Errorf("nil registry instruments allocate %.1f objects; want 0", a)
		}
		if a := testing.AllocsPerRun(100, func() {
			_ = reg.Counter("again")
			_ = reg.Histogram("again")
		}); a > 0 {
			t.Errorf("nil registry instrument lookup allocates %.1f objects; want 0", a)
		}
	})
	env.Run()
	<-done
}
