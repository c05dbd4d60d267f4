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
	if h.N() > DefaultHistogramCap {
		t.Fatalf("retained %d samples, cap %d", h.N(), DefaultHistogramCap)
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
		h.SetCap(64)
		h.SetRand(rng)
		for i := 0; i < 10_000; i++ {
			h.Record(time.Duration(i))
		}
		return append([]time.Duration(nil), h.Samples()...)
	}
	a := run(sim.NewEnv(7).Rand())
	b := run(sim.NewEnv(7).Rand())
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("reservoir sizes %d/%d, want 64", len(a), len(b))
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
	if h.N() != 100 || h.Total() != 100 {
		t.Fatalf("N=%d Total=%d, want 100/100", h.N(), h.Total())
	}
	for i, d := range h.Samples() {
		if d != time.Duration(i) {
			t.Fatalf("sample %d = %v, reordered below cap", i, d)
		}
	}
}

func TestHistogramSetCap(t *testing.T) {
	var h Histogram
	h.SetCap(8)
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i))
	}
	if h.N() != 8 {
		t.Fatalf("N = %d, want cap 8", h.N())
	}
	if h.Total() != 100 {
		t.Fatalf("Total = %d, want 100", h.Total())
	}
}
