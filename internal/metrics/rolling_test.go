package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestWindowedRateLinearCounter(t *testing.T) {
	w := NewWindowedRate(time.Minute)
	// Counter grows at exactly 5/s, sampled every 10 s.
	for i := 0; i <= 30; i++ {
		tm := time.Duration(i) * 10 * time.Second
		w.Observe(tm, 50*float64(i))
	}
	if got := w.Rate(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("linear counter rate = %v, want 5", got)
	}
}

func TestWindowedRateSeesRecentChangeOnly(t *testing.T) {
	w := NewWindowedRate(time.Minute)
	// 10 minutes at 1/s, then the counter stalls for 2 minutes: the rate
	// over the trailing minute must drop to 0 even though the run-wide
	// average is well above it.
	var count float64
	tm := time.Duration(0)
	for i := 0; i < 60; i++ {
		tm += 10 * time.Second
		count += 10
		w.Observe(tm, count)
	}
	for i := 0; i < 12; i++ {
		tm += 10 * time.Second
		w.Observe(tm, count)
	}
	if got := w.Rate(); got != 0 {
		t.Fatalf("stalled counter rate = %v, want 0", got)
	}
}

func TestWindowedRateFewSamples(t *testing.T) {
	w := NewWindowedRate(time.Minute)
	if w.Rate() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	w.Observe(time.Second, 10)
	if w.Rate() != 0 {
		t.Fatal("single sample should report 0")
	}
}

func TestWindowedRateCounterReset(t *testing.T) {
	w := NewWindowedRate(time.Minute)
	w.Observe(0, 100)
	w.Observe(10*time.Second, 200)
	w.Observe(20*time.Second, 0) // reset (e.g. component restarted)
	w.Observe(30*time.Second, 30)
	if got := w.Rate(); got < 0 {
		t.Fatalf("rate after reset = %v, must never be negative", got)
	}
}

// Property: for a counter sampled at arbitrary (random) cadences, the rate
// reported over a fully covered window equals the true slope.
func TestWindowedRateSubdivisionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		slope := 1 + rng.Float64()*20
		w := NewWindowedRate(time.Minute)
		tm := time.Duration(0)
		for tm < 5*time.Minute {
			tm += time.Duration(1+rng.Intn(5000)) * time.Millisecond
			w.Observe(tm, slope*tm.Seconds())
		}
		if got := w.Rate(); math.Abs(got-slope) > 1e-6*slope {
			t.Fatalf("trial %d: rate = %v, want %v", trial, got, slope)
		}
	}
}

func TestRollingWindowEvictsOldSamples(t *testing.T) {
	r := NewRollingWindow(time.Minute)
	for i := 0; i < 120; i++ {
		r.Observe(time.Duration(i)*time.Second, float64(i))
	}
	// Only the last ~60 seconds remain; the max equals the newest sample
	// and early values are gone.
	if r.Max() != 119 {
		t.Fatalf("max = %v, want 119", r.Max())
	}
	for _, v := range r.Values() {
		if v < 59 {
			t.Fatalf("sample %v older than the window survived", v)
		}
	}
}

func TestRollingWindowQuantile(t *testing.T) {
	r := NewRollingWindow(time.Hour)
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i)*time.Second, float64(i))
	}
	if q := r.Quantile(0.95); q < 94 || q > 96 {
		t.Fatalf("p95 of 1..100 = %v", q)
	}
	if m := r.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean of 1..100 = %v", m)
	}
}

func TestRollingWindowEmpty(t *testing.T) {
	r := NewRollingWindow(time.Minute)
	if r.Quantile(0.95) != 0 || r.Max() != 0 || r.Mean() != 0 || r.N() != 0 {
		t.Fatal("empty window should report zeros")
	}
}
