package experiment

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRegistry checks the table everything else is derived from: keys and ids
// unique, every entry complete, file names not shared by accident, -all equal
// to the registry, arms named.
func TestRegistry(t *testing.T) {
	keys, ids, files := map[string]bool{}, map[string]bool{}, map[string]*Experiment{}
	for _, e := range Registry {
		if e.Key == "" || e.ID == "" || e.Title == "" || e.File == "" || e.Run == nil {
			t.Errorf("incomplete entry: %+v", *e)
		}
		if keys[e.Key] {
			t.Errorf("key %q registered twice", e.Key)
		}
		keys[e.Key] = true
		if ids[e.ID] {
			t.Errorf("id %q registered twice", e.ID)
		}
		ids[e.ID] = true
		// Two entries may write one BENCH_<File>.json only as the two panels
		// of one sweep, which the file name then says: fig2_fig5.
		if prev := files[e.File]; prev != nil && e.File != "fig"+prev.Key+"_fig"+e.Key {
			t.Errorf("%s and %s both write BENCH_%s.json", prev.ID, e.ID, e.File)
		}
		files[e.File] = e
		if e.Gate != nil {
			// What `-gate bench` (make bench-kernel, make bench-plan) reads.
			if _, err := os.Stat("../../bench/" + e.File + "_baseline.json"); err != nil {
				t.Errorf("%s has a gate and no checked-in baseline: %v", e.ID, err)
			}
		}
		arms := map[string]bool{}
		for _, a := range e.Arms {
			if a.Name == "" || a.Build == nil || arms[a.Name] || strings.ContainsAny(a.Name, " /") {
				t.Errorf("%s: bad or repeated arm name %q", e.ID, a.Name)
			}
			arms[a.Name] = true
		}
	}

	all, err := Select("", "", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Registry) {
		t.Fatalf("-all selects %d of %d experiments", len(all), len(Registry))
	}
	for i, e := range all {
		if e != Registry[i] {
			t.Errorf("-all position %d is %s, registry has %s", i, e.ID, Registry[i].ID)
		}
	}
}

// TestSelect: names resolve per kind, come back in registry order whatever
// order they were given in, and an unknown one is an error listing the valid
// names of its kind.
func TestSelect(t *testing.T) {
	off := func(string) bool { return false }
	got, err := Select("5, 2", "plan,sync", func(key string) bool { return key == "rtt" }, false)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range got {
		ids = append(ids, e.ID)
	}
	if s := strings.Join(ids, " "); s != "FIG2 FIG5 T-RTT A-SYNC A-PLAN" {
		t.Errorf("selected %q", s)
	}
	if got, err := Select("", "", off, false); err != nil || len(got) != 0 {
		t.Errorf("empty command line selected %d experiments, err %v", len(got), err)
	}
	for _, bad := range [][2]string{{"7", ""}, {"", "shrad"}, {"sync", ""}, {"", "2"}} {
		_, err := Select(bad[0], bad[1], off, false)
		if err == nil {
			t.Errorf("Select(%q, %q) accepted an unknown name", bad[0], bad[1])
			continue
		}
		kind := KindFigure
		if bad[1] != "" {
			kind = KindAblation
		}
		if !strings.Contains(err.Error(), Keys(kind)) {
			t.Errorf("Select(%q, %q): %v does not list %s", bad[0], bad[1], err, Keys(kind))
		}
	}
}

// TestSessionFiguresWall: the wall-clock the kernel bench reports beside its
// own numbers is that of the figures and ablations the session ran before it
// — not time since the process started, which made a standalone -bench-kernel
// write a non-zero figures_wall_ms.
func TestSessionFiguresWall(t *testing.T) {
	var clock time.Duration
	sess := NewSession(SweepOpts{}, func() time.Duration { return clock })
	takes := func(kind Kind, d time.Duration) *Experiment {
		return &Experiment{Kind: kind, Key: "k", ID: "X", Run: func(*Session, *Experiment) (Output, error) {
			clock += d
			return Output{}, nil
		}}
	}
	clock = 5 * time.Second // flag parsing, profiles: not a sweep
	for _, e := range []*Experiment{takes(KindSwitch, time.Second), takes(KindSwitch, time.Second)} {
		if _, err := sess.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	if sess.figuresWall != 0 {
		t.Errorf("benches alone: figures wall %v, want 0", sess.figuresWall)
	}
	for _, e := range []*Experiment{takes(KindFigure, 3*time.Second), takes(KindAblation, 4*time.Second), takes(KindSwitch, time.Second)} {
		if _, err := sess.Run(e); err != nil {
			t.Fatal(err)
		}
	}
	if sess.figuresWall != 7*time.Second {
		t.Errorf("figure + ablation: figures wall %v, want 7s", sess.figuresWall)
	}
}

// TestDesignIndexListsEveryExperiment: DESIGN.md §4 is the per-experiment
// index; an experiment registered here and missing there is how the index
// stopped at A-SHARD for five ablations.
func TestDesignIndexListsEveryExperiment(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 4. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	for _, e := range Registry {
		row := regexp.MustCompile(`(?m)^\| ` + regexp.QuoteMeta(e.ID) + ` \|.*` + regexp.QuoteMeta(selector(e)))
		if !row.MatchString(section) {
			t.Errorf("DESIGN.md §4 has no row for %s naming `cloudrepl-bench %s`", e.ID, selector(e))
		}
	}
}

// selector is the command-line spelling of an experiment.
func selector(e *Experiment) string {
	switch e.Kind {
	case KindFigure:
		return "-fig " + e.Key
	case KindAblation:
		return "-ablation " + e.Key
	}
	return "-" + e.Key
}
