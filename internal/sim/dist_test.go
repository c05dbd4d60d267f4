package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestExpMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	mean := 5 * time.Second
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += Exp(rng, mean)
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean)) > 0.03*float64(mean) {
		t.Fatalf("sample mean %v, want ≈%v", time.Duration(got), mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if d := Exp(rng, 0); d != 0 {
		t.Fatalf("Exp(0) = %v, want 0", d)
	}
	if d := Exp(rng, -time.Second); d != 0 {
		t.Fatalf("Exp(-1s) = %v, want 0", d)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100001
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = LogNormal(rng, 20*time.Millisecond, 0.5)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	med := samples[n/2]
	if math.Abs(float64(med)-float64(20*time.Millisecond)) > 0.05*float64(20*time.Millisecond) {
		t.Fatalf("sample median %v, want ≈20ms", med)
	}
}

func TestTruncNormFactorStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		f := TruncNormFactor(rng, 0.21)
		if f < 0.3 || f > 3 {
			t.Fatalf("factor %v outside truncation bounds", f)
		}
		sum += f
		sumsq += f * f
	}
	mean := sum / n
	cov := math.Sqrt(sumsq/n-mean*mean) / mean
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("mean factor %v, want ≈1", mean)
	}
	if math.Abs(cov-0.21) > 0.03 {
		t.Fatalf("CoV %v, want ≈0.21", cov)
	}
	if f := TruncNormFactor(rng, 0); f != 1 {
		t.Fatalf("CoV 0 factor = %v, want 1", f)
	}
}
