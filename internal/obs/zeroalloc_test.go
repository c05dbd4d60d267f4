package obs

import (
	"testing"

	"cloudrepl/internal/sim"
)

// TestDisabledObsZeroAlloc pins the "observability off" contract: a nil
// Tracer is the disabled state, and every operation on it (and on the nil
// spans it hands out) must be allocation-free — the hot path pays nothing
// when tracing is not requested.
func TestDisabledObsZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	var tr *Tracer
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

	})
	env.Run()
	<-done
}
