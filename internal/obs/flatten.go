package obs

import (
	"fmt"
	"reflect"

	"cloudrepl/internal/metrics"
)

// FlattenHistogram writes h into dst as <name>.count, <name>.mean_ms,
// <name>.p95_ms and <name>.max_ms (Histogram.Summary says which are exact),
// and returns the summary it read them from for a caller that publishes more.
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
