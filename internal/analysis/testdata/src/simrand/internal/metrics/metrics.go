// Fixture for the simrand analyzer's observer rule: a package that observes
// the run (its path ends in internal/metrics or internal/obs) references no
// math/rand object, not even a threaded *rand.Rand, and calls neither
// Env.Rand nor Proc.Rand of the sim kernel.
package metrics

import (
	"math/rand"

	"cloudrepl/internal/sim"
)

// Histogram draws its replacements from its own stream.
type Histogram struct {
	state uint64
	rng   *rand.Rand // want `math/rand\.Rand in .*internal/metrics, which observes the run`
}

// SetRand is the injected-RNG setter the rule exists to keep out.
func (h *Histogram) SetRand(rng *rand.Rand) { // want `math/rand\.Rand in .*internal/metrics`
	h.rng = rng
}

func (h *Histogram) draw(n int64) int64 {
	return h.rng.Int63n(n) // want `math/rand\.Int63n in .*internal/metrics`
}

func global() int {
	return rand.Intn(10) // want `math/rand\.Intn in .*internal/metrics`
}

func fromEnv(env *sim.Env, p *sim.Proc) {
	a := env.Rand() // want `sim Rand in .*internal/metrics`
	b := p.Rand()   // want `sim Rand in .*internal/metrics`
	_, _ = a, b
}

// seeded is the sanctioned form: a private stream seeded from the run.
func seeded(env *sim.Env) uint64 {
	return uint64(env.Seed()) ^ 0x9e3779b97f4a7c15
}

//cloudrepl:allow-simrand fixture exercising the annotation escape hatch
func allowed() int {
	return rand.Intn(10)
}
