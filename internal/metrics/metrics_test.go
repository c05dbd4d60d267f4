package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary: %+v", s)
	}
	want := math.Sqrt(2)
	if math.Abs(s.StdDev-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestTrimCutsBothTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	trimmed := Trim(xs, 0.05)
	if len(trimmed) != 90 {
		t.Fatalf("trimmed length = %d, want 90", len(trimmed))
	}
	if trimmed[0] != 5 || trimmed[len(trimmed)-1] != 94 {
		t.Fatalf("trim bounds: %v..%v", trimmed[0], trimmed[len(trimmed)-1])
	}
}

func TestTrimmedMeanRobustToOutliers(t *testing.T) {
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
		10, 10, 10, 10, 10, 10, 10, 10, 1e9, -1e9}
	got := TrimmedMean(xs, 0.05)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("trimmed mean = %v, want 10 (outliers cut)", got)
	}
}

func TestTrimDegenerate(t *testing.T) {
	if got := Trim([]float64{5}, 0.5); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate trim: %v", got)
	}
	if TrimmedMean(nil, 0.05) != 0 {
		t.Fatal("empty trimmed mean should be 0")
	}
}

// Property: the trimmed mean always lies within [min, max] of the input,
// and trimming is monotone in length.
func TestTrimProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0:0]
		for _, v := range raw {
			// Keep magnitudes physical so summation cannot overflow.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		tm := TrimmedMean(xs, 0.05)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return tm >= sorted[0]-1e-9 && tm <= sorted[len(sorted)-1]+1e-9 &&
			len(Trim(xs, 0.05)) <= len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if len(h.samples) != 100 {
		t.Fatalf("N = %d", len(h.samples))
	}
	s := h.Summary()
	if s.Median < 49 || s.Median > 52 {
		t.Fatalf("p50 ms = %v", s.Median)
	}
	if s.P99 < 98 {
		t.Fatalf("p99 ms = %v", s.P99)
	}
	if math.Abs(s.Mean-50.5) > 0.01 {
		t.Fatalf("mean ms = %v", s.Mean)
	}
}

func TestTimeSeriesWindows(t *testing.T) {
	ts := NewTimeSeries("x")
	for i := 0; i < 10; i++ {
		ts.Append(time.Duration(i)*time.Second, float64(i))
	}
	got := ts.Between(3*time.Second, 6*time.Second)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("window: %v", got)
	}
	if len(ts.Points()) != 10 {
		t.Fatal("series accessors broken")
	}
}

// The paper's 5%-trimmed mean must behave at the sample-count boundaries:
// below 20 samples the per-side cut rounds to zero (plain mean), at 20+ it
// removes exactly one sample per side, and a degenerate all-equal set stays
// unchanged in value.
func TestTrimmedMeanSampleCountBoundaries(t *testing.T) {
	ascending := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, v := range xs {
			sum += v
		}
		if len(xs) == 0 {
			return 0
		}
		return sum / float64(len(xs))
	}
	cases := []struct {
		name     string
		xs       []float64
		wantLen  int     // surviving samples after the 5% trim
		wantMean float64 // expected TrimmedMean(xs, 0.05)
	}{
		{"n=0", ascending(0), 0, 0},
		{"n=1", ascending(1), 1, 1},
		{"n=19 no cut", ascending(19), 19, mean(ascending(19))},
		{"n=20 cuts one per side", ascending(20), 18, mean(ascending(20)[1:19])},
		{"n=21 cuts one per side", ascending(21), 19, mean(ascending(21)[1:20])},
		{"all equal", []float64{7, 7, 7, 7, 7}, 5, 7},
		{"all equal n=40", func() []float64 {
			xs := make([]float64, 40)
			for i := range xs {
				xs[i] = 3.5
			}
			return xs
		}(), 36, 3.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := len(Trim(tc.xs, 0.05)); got != tc.wantLen {
				t.Fatalf("Trim kept %d samples, want %d", got, tc.wantLen)
			}
			if got := TrimmedMean(tc.xs, 0.05); math.Abs(got-tc.wantMean) > 1e-9 {
				t.Fatalf("TrimmedMean = %v, want %v", got, tc.wantMean)
			}
		})
	}
}

// A negative fraction used to produce negative slice bounds and panic; it
// must now mean "no trimming".
func TestTrimNegativeFrac(t *testing.T) {
	xs := []float64{3, 1, 2}
	got := Trim(xs, -0.05)
	if len(got) != 3 {
		t.Fatalf("Trim(-0.05) kept %d samples, want 3", len(got))
	}
	if TrimmedMean(xs, -1) != 2 {
		t.Fatalf("TrimmedMean(-1) = %v, want 2", TrimmedMean(xs, -1))
	}
}

func TestQuantile(t *testing.T) {
	if got := Quantile(nil, 0.95); got != 0 {
		t.Fatalf("Quantile(nil) = %v", got)
	}
	xs := []float64{50, 10, 40, 30, 20} // unsorted on purpose
	cases := []struct {
		q    float64
		want float64
	}{{0, 10}, {0.5, 30}, {0.95, 40}, {1, 50}, {-1, 10}, {2, 50}}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); got != tc.want {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Fatal("Quantile mutated its input")
	}
}
