package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors /BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesCode keeps BENCHMARK.json and the tables in the code in
// step: same workloads with the same reasons, same metrics with the same
// unit, direction and bound, in the same order.
func TestContractMatchesCode(t *testing.T) {
	c := loadContract(t)
	if got := strings.Join(c.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metric) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q): bad name or unit", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		if m.Currency != virtual && m.Currency != host {
			t.Errorf("metric %q: currency = %q", m.Name, m.Currency)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code has %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m)
		j := c.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code has %d", len(c.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		check(m)
		j := c.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, j, m)
		}
	}
}

// TestSmoke runs the whole command on the short protocol — every workload,
// timed rep and traced pass — and checks that every metric BENCHMARK.json
// names comes out exactly once per workload with a finite value, that every
// correctness check passes, that the trace files load, and that -compare
// passes a file against itself and flags a doctored one.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four cells; skipped in -short")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short", "-reps", "1", "-seed", "3", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	path := filepath.Join(out, "results.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	c := loadContract(t)
	for _, w := range c.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("workload %s missing from results", w.Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Violations)
		}
		if len(wr.EndToEnd) != len(c.EndToEnd) || len(wr.PerLayer) != len(c.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				w.Name, len(wr.EndToEnd), len(wr.PerLayer), len(c.EndToEnd), len(c.PerLayer))
		}
		finite := func(group map[string]series, name, unit string) {
			s, ok := group[name]
			if !ok || len(s.PerRep) == 0 {
				t.Errorf("%s: metric %s not emitted", w.Name, name)
				return
			}
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != unit {
				t.Errorf("%s: metric %s = %v %s, want a finite value in %s", w.Name, name, s.Value, s.Unit, unit)
			}
		}
		for _, m := range c.EndToEnd {
			finite(wr.EndToEnd, m.Name, m.Unit)
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}
		for _, m := range c.PerLayer {
			finite(wr.PerLayer, m.Name, m.Unit)
		}
		trace, err := os.ReadFile(wr.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(trace, &tf); err != nil || len(tf.TraceEvents) < 1000 {
			t.Errorf("%s: trace file has %d events (%v)", w.Name, len(tf.TraceEvents), err)
		}
	}

	stdout.Reset()
	if code := run([]string{"-compare", path, path}, &stdout, &stderr); code != 0 {
		t.Errorf("-compare of a file with itself: exit %d\n%s", code, stdout.String())
	}
	if n := strings.Count(stdout.String(), " same"); n != len(c.Workloads)*len(c.EndToEnd) {
		t.Errorf("-compare of a file with itself: %d rows say same, want %d\n%s",
			n, len(c.Workloads)*len(c.EndToEnd), stdout.String())
	}
	s := res.Workloads["read_heavy"].EndToEnd["ops_per_vsec"]
	s.Value, s.Q1, s.Q3 = s.Value/2, s.Q1/2, s.Q3/2
	res.Workloads["read_heavy"].EndToEnd["ops_per_vsec"] = s
	doctored := filepath.Join(out, "doctored.json")
	if err := writeJSON(doctored, res); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-compare", path, doctored}, &stdout, &stderr); code != 1 {
		t.Errorf("-compare against a file with halved throughput: exit %d, want 1", code)
	}
	if !regexp.MustCompile(`read_heavy\s+ops_per_vsec.*worse`).MatchString(stdout.String()) {
		t.Errorf("-compare did not flag the doctored metric:\n%s", stdout.String())
	}
}

// TestSeeds pins the seed contract: one seed, one set of virtual numbers; a
// second seed runs clean and differs.
func TestSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a cell three times; skipped in -short")
	}
	w := &workloads[0] // geo_light, the cheapest cell
	block := func(seed int64) string {
		r, err := runRep(w, shortProtocol, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || len(r.violations) != 0 {
			t.Errorf("seed %d: %d failed pages, %v", seed, r.failed, r.violations)
		}
		return r.virtualBlock()
	}
	a, b, c := block(1), block(1), block(2)
	if a != b {
		t.Errorf("two reps at seed 1 differ:\n%s\n---\n%s", a, b)
	}
	if a == c {
		t.Error("seeds 1 and 2 gave identical virtual metrics: the seed does not reach the traffic")
	}
}
