package obs

import (
	"fmt"
	"math/rand"
	"reflect"

	"cloudrepl/internal/metrics"
)

// Counter is a monotone count kept by live instrumentation. A nil *Counter
// (from a disabled registry) no-ops on every method, so call sites need no
// guards and stay allocation-free.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d.
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Registry holds the instruments that have no component Stats struct to
// live in: named counters and (reservoir-sampled) duration histograms that
// are written as the run goes — core's client.errors and client.exec.
// Everything a component already counts in its Stats struct is read from
// there at snapshot time by Flatten, not copied in here. Metric names are
// dotted lowercase, "<component>.<metric>". The zero Registry is not usable;
// call NewRegistry. A nil *Registry is "metrics off": every lookup returns a
// nil instrument whose methods no-op, so instrumented code runs unguarded and
// unallocating.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*metrics.Histogram
	rng      *rand.Rand
}

// NewRegistry creates an empty registry. It draws no randomness at
// construction; histogram reservoirs use the generator injected with
// SetRand (core.Open threads the simulation env's RNG through).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*metrics.Histogram),
	}
}

// SetRand injects the RNG new histograms sample their reservoirs with,
// keeping eviction choices on the env-threaded random stream. Histograms
// created before the call keep their previous source.
func (r *Registry) SetRand(rng *rand.Rand) {
	if r != nil {
		r.rng = rng
	}
}

// Counter returns the named counter, creating it on first use (nil on a
// nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named duration histogram, creating it on first use
// with the registry's reservoir RNG (nil on a nil registry).
func (r *Registry) Histogram(name string) *metrics.Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &metrics.Histogram{}
		h.SetRand(r.rng)
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens every instrument into a fresh name→value map: counters
// verbatim, histograms expanded by FlattenHistogram. The map marshals with
// sorted keys, so a snapshot in JSON output is deterministic. Nil on a nil
// registry.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for name, c := range r.counters {
		out[name] = c.v
	}
	//cloudrepl:allow-maporder each histogram fills its own keys of out and reading a summary draws nothing
	for name, h := range r.hists {
		FlattenHistogram(out, name, h)
	}
	return out
}

// FlattenHistogram writes h into dst as <name>.count (every sample ever
// recorded), <name>.mean_ms, <name>.p95_ms and <name>.max_ms, and returns
// the summary it read them from for a caller that publishes more of it.
func FlattenHistogram(dst map[string]float64, name string, h *metrics.Histogram) metrics.Summary {
	s := h.Summary()
	dst[name+".count"] = float64(h.Total())
	dst[name+".mean_ms"] = s.Mean
	dst[name+".p95_ms"] = s.P95
	dst[name+".max_ms"] = s.Max
	return s
}

// Flatten reads a component's Stats struct into dst: every exported field
// tagged `metric:"name"` becomes dst[prefix+name], converted to float64. A
// field tagged `metric:"-"` is left out. The tag is mandatory — an exported
// field without one, a tagged field that is not an integer or a float, or a
// stats argument that is not a struct (or a pointer to one) is a programming
// error and panics, so a counter cannot be added to a struct and silently go
// unpublished. Fields are read when Flatten runs; nothing is registered
// ahead of time, which is what lets a snapshot be taken at any instant and
// see a cell that a split created a moment ago.
func Flatten(dst map[string]float64, prefix string, stats any) {
	v := reflect.Indirect(reflect.ValueOf(stats))
	if v.Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: Flatten of %T, want a struct", stats))
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, ok := f.Tag.Lookup("metric")
		switch {
		case !ok || name == "":
			panic(fmt.Sprintf("obs: %s.%s has no metric tag", t, f.Name))
		case name == "-":
			continue
		}
		switch fv := v.Field(i); {
		case fv.CanUint():
			dst[prefix+name] = float64(fv.Uint())
		case fv.CanInt():
			dst[prefix+name] = float64(fv.Int())
		case fv.CanFloat():
			dst[prefix+name] = fv.Float()
		default:
			panic(fmt.Sprintf("obs: %s.%s is a %s, not a number", t, f.Name, f.Type))
		}
	}
}
