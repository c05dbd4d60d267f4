package metrics

import (
	"math/rand"
	"testing"
	"time"

	"cloudrepl/internal/sim"
)

// TestHistogramReservoirBoundsMemory is the unbounded-growth regression
// test: a long run used to append every sample, so 200k records grew the
// slice to 200k entries; now retention is capped while the recorded total
// and the quantile estimates stay sound.
func TestHistogramReservoirBoundsMemory(t *testing.T) {
	var h Histogram
	const n = 200_000
	for i := 0; i < n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if len(h.samples) > histogramCap {
		t.Fatalf("retained %d samples, cap %d", len(h.samples), histogramCap)
	}
	if h.Total() != n {
		t.Fatalf("total = %d, want %d", h.Total(), n)
	}
	// A uniform reservoir over a uniform ramp keeps the quantiles roughly in
	// place; a wide tolerance still catches head-only or tail-only retention.
	med := h.Summary().Median * 1000 // ms → µs
	if med < n/4 || med > 3*n/4 {
		t.Fatalf("median %v wildly off for a uniform ramp of %d", med, n)
	}
}

// TestHistogramReservoirDeterministic: with the same injected RNG seed the
// reservoir evicts identically, and the zero-value fallback generator is
// deterministic on its own.
func TestHistogramReservoirDeterministic(t *testing.T) {
	run := func(rng *rand.Rand) []time.Duration {
		var h Histogram
		h.SetRand(rng)
		for i := 0; i < 3*histogramCap; i++ {
			h.Record(time.Duration(i))
		}
		return h.samples
	}
	a := run(sim.NewEnv(7).Rand())
	b := run(sim.NewEnv(7).Rand())
	if len(a) != histogramCap || len(b) != histogramCap {
		t.Fatalf("reservoir sizes %d/%d, want %d", len(a), len(b), histogramCap)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed reservoirs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(nil) // fallback splitmix64
	d := run(nil)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("fallback reservoirs differ at %d: %v vs %v", i, c[i], d[i])
		}
	}
}

// TestHistogramBelowCapKeepsEverySample: short runs are unchanged by the
// reservoir — every sample retained in arrival order, no RNG consulted.
func TestHistogramBelowCapKeepsEverySample(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i))
	}
	if len(h.samples) != 100 || h.Total() != 100 {
		t.Fatalf("N=%d Total=%d, want 100/100", len(h.samples), h.Total())
	}
	for i, d := range h.samples {
		if d != time.Duration(i) {
			t.Fatalf("sample %d = %v, reordered below cap", i, d)
		}
	}
}
