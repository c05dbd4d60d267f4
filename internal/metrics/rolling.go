package metrics

import (
	"sort"
	"time"
)

// WindowedRate converts samples of a monotonically non-decreasing cumulative
// counter (completed operations, pool waits, binlog events, ...) into the
// counter's rate over a trailing window of the virtual timeline. It is the
// primitive the elastic controller uses to see "throughput right now"
// instead of a run-wide average.
type WindowedRate struct {
	window  time.Duration
	samples []Point // Point.T is the observation time, Point.V the counter
}

// NewWindowedRate creates a rate estimator with the given trailing window.
// A non-positive window defaults to one minute.
func NewWindowedRate(window time.Duration) *WindowedRate {
	if window <= 0 {
		window = time.Minute
	}
	return &WindowedRate{window: window}
}

// Observe records the counter's value at virtual time t. Observations must
// arrive in non-decreasing time order; the counter itself may stall but must
// never decrease (a decrease is treated as a counter reset and the history
// is discarded so the rate never goes negative).
func (w *WindowedRate) Observe(t time.Duration, count float64) {
	if n := len(w.samples); n > 0 && count < w.samples[n-1].V {
		w.samples = w.samples[:0]
	}
	w.samples = append(w.samples, Point{T: t, V: count})
	w.trim(t)
}

// trim drops samples older than the window, always keeping one sample at or
// before the window edge so the rate covers the full window width.
func (w *WindowedRate) trim(now time.Duration) {
	edge := now - w.window
	cut := 0
	for cut+1 < len(w.samples) && w.samples[cut+1].T <= edge {
		cut++
	}
	if cut > 0 {
		w.samples = append(w.samples[:0], w.samples[cut:]...)
	}
}

// Rate returns the counter's per-second rate over (at most) the trailing
// window, as of the newest observation. With fewer than two observations the
// rate is zero.
func (w *WindowedRate) Rate() float64 {
	n := len(w.samples)
	if n < 2 {
		return 0
	}
	first, last := w.samples[0], w.samples[n-1]
	span := (last.T - first.T).Seconds()
	if span <= 0 {
		return 0
	}
	return (last.V - first.V) / span
}

// RollingWindow keeps the samples observed during a trailing window of the
// virtual timeline and answers order statistics over them — the elastic
// controller's view of "p95 staleness over the last two minutes".
type RollingWindow struct {
	window  time.Duration
	samples []Point
}

// NewRollingWindow creates a window of the given width (non-positive
// defaults to one minute).
func NewRollingWindow(window time.Duration) *RollingWindow {
	if window <= 0 {
		window = time.Minute
	}
	return &RollingWindow{window: window}
}

// Observe records v at virtual time t (non-decreasing t).
func (r *RollingWindow) Observe(t time.Duration, v float64) {
	r.samples = append(r.samples, Point{T: t, V: v})
	edge := t - r.window
	cut := 0
	for cut < len(r.samples) && r.samples[cut].T < edge {
		cut++
	}
	if cut > 0 {
		r.samples = append(r.samples[:0], r.samples[cut:]...)
	}
}

// Values returns the retained sample values in observation order.
func (r *RollingWindow) Values() []float64 {
	out := make([]float64, len(r.samples))
	for i, p := range r.samples {
		out[i] = p.V
	}
	return out
}

// Quantile returns the q-quantile (nearest-rank) of the retained samples.
func (r *RollingWindow) Quantile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	sorted := r.Values()
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}
