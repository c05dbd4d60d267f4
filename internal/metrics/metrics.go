// Package metrics provides the statistics used by the experiment harness:
// summaries with two-sided trimming (the paper cuts the top and bottom 5%
// of delay samples as network-fluctuation outliers), duration histograms
// and simple time series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary describes a sample set.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
	P95    float64
	P99    float64
}

// Summarize computes a Summary of xs (xs is not modified).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumsq float64
	for _, v := range sorted {
		sum += v
		sumsq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumsq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Median: quantileSorted(sorted, 0.5),
		StdDev: math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P95:    quantileSorted(sorted, 0.95),
		P99:    quantileSorted(sorted, 0.99),
	}
}

// quantileSorted returns the q-quantile of a sorted slice (nearest-rank).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Trim returns xs with the lowest and highest frac of samples removed
// (frac per side, e.g. 0.05 cuts 5% at each end). The result is sorted.
func Trim(xs []float64, frac float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	cut := int(float64(len(sorted)) * frac)
	if cut < 0 {
		// A negative frac would otherwise produce negative slice bounds;
		// treat it as "no trimming".
		cut = 0
	}
	if 2*cut >= len(sorted) {
		// Degenerate: keep the median.
		return sorted[len(sorted)/2 : len(sorted)/2+1]
	}
	return sorted[cut : len(sorted)-cut]
}

// TrimmedMean is the mean after two-sided trimming — the paper's estimator
// for average replication delay.
func TrimmedMean(xs []float64, frac float64) float64 {
	t := Trim(xs, frac)
	if len(t) == 0 {
		return 0
	}
	var sum float64
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

// Quantile returns the nearest-rank q-quantile of xs (0 for an empty
// slice); xs is not modified. q is clamped to [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return quantileSorted(sorted, q)
}

// histogramCap bounds how many samples a Histogram retains. It is
// large enough that the quick-protocol experiments keep every sample, while
// a long run — which used to grow the slice without bound — degrades to a
// uniform reservoir of this size. Only the package's tests lower it.
var histogramCap = 32768

// Histogram collects durations. Up to histogramCap every sample is
// retained; past it, reservoir sampling (Algorithm R) keeps a uniform
// subsample of everything recorded, so memory stays bounded on arbitrarily
// long runs and quantiles remain unbiased estimates. Replacement draws come
// from a private splitmix64 stream, never from the simulation's RNG, so
// metering a run cannot change it; the same samples give the same reservoir.
type Histogram struct {
	samples  []time.Duration
	total    uint64        // samples recorded, including those evicted
	min, max time.Duration // over every sample recorded, evicted ones included
	state    uint64        // splitmix64 state of the replacement draws
}

// Record adds one sample, evicting a uniformly-chosen earlier sample once
// the reservoir is full. A nil *Histogram (a disabled metrics registry's
// instrument) discards the sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.total++
	if h.total == 1 {
		h.min, h.max = d, d
	}
	h.min, h.max = min(h.min, d), max(h.max, d)
	if len(h.samples) < histogramCap {
		h.samples = append(h.samples, d)
		return
	}
	// Algorithm R: the i-th sample replaces a random reservoir slot with
	// probability cap/i, implemented as a uniform index into [0, i).
	j := h.randInt64(int64(h.total))
	if h.total == uint64(len(h.samples))+1 {
		// The first sample past the cap seeds the stream, after its own
		// draw: its value, which the run's seed decides, is mixed into the
		// fixed start, so two seeds evict differently and no sample's value
		// decides whether that sample is kept.
		h.state ^= uint64(d)
	}
	if j < int64(len(h.samples)) {
		h.samples[j] = d
	}
}

// randInt64 returns a uniform draw in [0, n) by one splitmix64 step (the
// modulo bias at n ≪ 2⁶⁴ is far below sampling noise).
func (h *Histogram) randInt64(n int64) int64 {
	h.state += 0x9e3779b97f4a7c15
	z := h.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z % uint64(n))
}

// Total returns how many samples were ever recorded, including those the
// reservoir evicted.
func (h *Histogram) Total() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Float64s converts samples to milliseconds.
func (h *Histogram) Float64s() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.samples))
	for i, d := range h.samples {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summary summarizes the histogram in milliseconds. N, Min and Max are
// exact: they count and bound every sample recorded. Mean, Median, StdDev
// and the quantiles are computed over the reservoir, so past histogramCap
// samples they are estimates.
func (h *Histogram) Summary() Summary {
	s := Summarize(h.Float64s())
	if h != nil {
		s.N, s.Min, s.Max = int(h.total), ms(h.min), ms(h.max)
	}
	return s
}

// Point is one time-series observation.
type Point struct {
	T time.Duration
	V float64
}

// TimeSeries is an append-only series of observations on the virtual
// timeline.
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries creates a named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Append records (t, v).
func (ts *TimeSeries) Append(t time.Duration, v float64) {
	ts.points = append(ts.points, Point{t, v})
}

// Points returns all observations.
func (ts *TimeSeries) Points() []Point { return ts.points }

// Between returns values observed in [from, to).
func (ts *TimeSeries) Between(from, to time.Duration) []float64 {
	var out []float64
	for _, p := range ts.points {
		if p.T >= from && p.T < to {
			out = append(out, p.V)
		}
	}
	return out
}

// String renders a compact summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f median=%.2f σ=%.2f min=%.2f max=%.2f p95=%.2f",
		s.N, s.Mean, s.Median, s.StdDev, s.Min, s.Max, s.P95)
}
