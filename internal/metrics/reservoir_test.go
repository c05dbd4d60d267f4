package metrics

import (
	"slices"
	"testing"
	"time"
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

// TestHistogramReservoirDeterministic: the reservoir is a function of the
// samples alone. The same samples keep the same slots; two streams that agree
// up to the cap and differ past it, as two seeds' runs would, evict different
// slots; the first sample past the cap takes one slot whatever its value;
// the summary's count and extremes still cover every sample, evicted ones
// included; and a Record past the cap allocates nothing.
func TestHistogramReservoirDeterministic(t *testing.T) {
	// fill records 0, 1, … up to the cap and then n more samples, each past
	// the cap shifted by offset.
	fill := func(n int, offset time.Duration) *Histogram {
		h := new(Histogram)
		for i := 0; i < histogramCap+n; i++ {
			d := time.Duration(i)
			if i >= histogramCap {
				d += offset
			}
			h.Record(d)
		}
		return h
	}
	// evicted marks the slots that no longer hold their sample from below
	// the cap: every later sample is at least the cap.
	evicted := func(h *Histogram) []bool {
		out := make([]bool, len(h.samples))
		for i, d := range h.samples {
			out[i] = d != time.Duration(i)
		}
		return out
	}
	a, b := fill(2*histogramCap, 0), fill(2*histogramCap, 0)
	if len(a.samples) != histogramCap {
		t.Fatalf("reservoir size %d, want %d", len(a.samples), histogramCap)
	}
	if !slices.Equal(a.samples, b.samples) {
		t.Fatal("the same samples gave two reservoirs")
	}
	if c := fill(2*histogramCap, 1); slices.Equal(evicted(a), evicted(c)) {
		t.Fatal("samples that differ past the cap evicted the same slots: the stream ignores them")
	}
	if !slices.Equal(evicted(fill(1, 0)), evicted(fill(1, 7))) {
		t.Fatal("the first sample past the cap chose its slot by its own value")
	}
	// Two spikes recorded first, then many times the cap of samples between
	// them: the reservoir evicts both, the extremes keep them.
	h := new(Histogram)
	h.Record(time.Hour)
	h.Record(time.Nanosecond)
	n := 16 * histogramCap
	for i := 2; i < n; i++ {
		h.Record(time.Microsecond + time.Duration(i))
	}
	if slices.Contains(h.samples, time.Hour) || slices.Contains(h.samples, time.Nanosecond) {
		t.Fatal("a spike is still in the reservoir: the extremes are not tested past the cap")
	}
	if s := h.Summary(); s.N != n || s.Max != 3.6e6 || s.Min != 1e-6 {
		t.Fatalf("past the cap: N %d, Min %v ms, Max %v ms; want %d, 1e-06 and 3.6e+06", s.N, s.Min, s.Max, n)
	}
	if allocs := testing.AllocsPerRun(1000, func() { a.Record(time.Millisecond) }); allocs != 0 {
		t.Fatalf("Record past the cap allocates %v objects, want 0", allocs)
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
