package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/chaos"
	"cloudrepl/internal/elastic"
	"cloudrepl/internal/obs"
	"cloudrepl/internal/pool"
	"cloudrepl/internal/proxy"
	"cloudrepl/internal/repl"
	"cloudrepl/internal/shard"
)

// TestEveryCounterIsTagged walks the structs a snapshot flattens: every
// exported numeric field names its metric (or opts out with "-"), no two
// fields of a struct share a name, and obs.Flatten publishes exactly the
// named ones — a counter added to one of these structs cannot go silently
// unpublished.
func TestEveryCounterIsTagged(t *testing.T) {
	for _, stats := range []any{
		proxy.Stats{}, pool.Stats{}, repl.Stats{}, shard.Stats{}, chaos.Counters{}, elastic.Counters{},
	} {
		typ := reflect.TypeOf(stats)
		owner := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := f.Tag.Get("metric")
			switch k := f.Type.Kind(); {
			case name == "-":
				continue
			case name == "":
				t.Errorf("%s.%s has no metric tag (a name, or \"-\" to keep it out)", typ, f.Name)
				continue
			case k < reflect.Int || k > reflect.Float64 || k == reflect.Uintptr:
				t.Errorf("%s.%s is published as %q but is a %s", typ, f.Name, name, f.Type)
			}
			if prev, dup := owner[name]; dup {
				t.Errorf("%s: %s and %s are both published as %q", typ, prev, f.Name, name)
			}
			owner[name] = f.Name
		}
		if t.Failed() {
			continue // Flatten would panic on what was just reported
		}
		got := map[string]float64{}
		obs.Flatten(got, "", stats)
		if len(got) != len(owner) {
			t.Errorf("%s: Flatten published %d names, the tags name %d", typ, len(got), len(owner))
		}
	}
}

// checkMetricNames compares the key set of a metrics snapshot with
// testdata/<file>, one name per line. The names are what BENCH JSON readers
// key on (the files predate obs.Flatten and were not edited for it), so a
// renamed tag or a counter that stops being published fails here, by name.
func checkMetricNames(t *testing.T, file string, m map[string]float64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range strings.Fields(string(raw)) {
		want[name] = true
	}
	var diff []string
	for name := range m {
		if !want[name] {
			diff = append(diff, "+ "+name+" (not in "+file+")")
		}
	}
	for name := range want {
		if _, ok := m[name]; !ok {
			diff = append(diff, "- "+name+" (in "+file+", not published)")
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("metric names differ from testdata/%s:\n%s", file, strings.Join(diff, "\n"))
	}
}

// TestMetricNamesGolden pins the published metric names on the three shapes
// a snapshot takes: a Run with a fault schedule (handle from Open plus the
// injector's counters), an elastic arm (plus the controller's), and a 2-cell
// sharded handle after one split (router, histograms and three cells — the
// third never registered anywhere).
func TestMetricNamesGolden(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		res, err := Run(RunSpec{
			Seed: 72, Users: 60, Slaves: 2, Scale: 300, ReadRatio: 0.5, Loc: SameZone,
			RampUp: 30 * time.Second, Steady: time.Minute, RampDown: 15 * time.Second,
			Chaos: new(chaos.Schedule).CrashFor(40*time.Second, 20*time.Second, "slave1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics["chaos.crashes"] != 1 || res.Metrics["proxy.reads"] == 0 {
			t.Fatalf("run did not exercise what it names: crashes %v, reads %v",
				res.Metrics["chaos.crashes"], res.Metrics["proxy.reads"])
		}
		checkMetricNames(t, "metric_names_run.txt", res.Metrics)
	})
	t.Run("elastic", func(t *testing.T) {
		fr, err := runElasticArm(7, sloArm, elasticStages(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Metrics["elastic.scale_out"] == 0 {
			t.Fatal("the arm never scaled out")
		}
		checkMetricNames(t, "metric_names_elastic.txt", fr.Metrics)
	})
	t.Run("sharded", func(t *testing.T) {
		out, err := runShardArm(shardArmSpec{
			seed: 11, users: 40, cells: 2, slaves: 1, scale: 300, readRatio: 0.5,
			ramp: 30 * time.Second, steady: 5 * time.Minute, down: 15 * time.Second, split: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := out.arm.Metrics
		if out.split.Report.Aborted || m["shard.cells"] != 3 || m["shard.cell2.proxy.writes"] == 0 {
			t.Fatalf("split did not add a serving third cell: aborted=%v cells=%v cell2 writes=%v",
				out.split.Report.Aborted, m["shard.cells"], m["shard.cell2.proxy.writes"])
		}
		checkMetricNames(t, "metric_names_sharded.txt", m)
	})
}
