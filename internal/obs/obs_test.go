package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cloudrepl/internal/metrics"
	"cloudrepl/internal/sim"
)

// runTraced executes fn on a fresh env/tracer pair and returns the tracer
// after the simulation drains.
func runTraced(seed int64, fn func(p *sim.Proc, tr *Tracer)) *Tracer {
	env := sim.NewEnv(seed)
	tr := NewTracer(env)
	env.Go("test", func(p *sim.Proc) { fn(p, tr) })
	env.Run()
	return tr
}

func TestSpanNestingFollowsProcStack(t *testing.T) {
	tr := runTraced(1, func(p *sim.Proc, tr *Tracer) {
		root := tr.StartSpan(p, "client", "exec")
		p.Sleep(time.Millisecond)
		child := tr.StartSpan(p, "proxy", "route")
		grand := tr.StartSpan(p, "server", "exec")
		if grand.Parent != child.ID || child.Parent != root.ID {
			t.Errorf("parent chain broken: root=%d child.Parent=%d grand.Parent=%d",
				root.ID, child.Parent, grand.Parent)
		}
		if child.Trace != root.Trace || grand.Trace != root.Trace {
			t.Error("children did not inherit the root's trace")
		}
		if root.Parent != 0 {
			t.Errorf("root has parent %d", root.Parent)
		}
		grand.End(p)
		child.End(p)
		root.End(p)

		// With the stack drained, the next span roots a new trace.
		next := tr.StartSpan(p, "client", "exec")
		if next.Trace == root.Trace || next.Parent != 0 {
			t.Errorf("post-drain span did not root a new trace: trace=%d parent=%d",
				next.Trace, next.Parent)
		}
		next.End(p)
	})
	if n := tr.Orphans(); n != 0 {
		t.Fatalf("orphans = %d, want 0", n)
	}
}

func TestOutOfOrderEndDoesNotWedgeStack(t *testing.T) {
	runTraced(2, func(p *sim.Proc, tr *Tracer) {
		outer := tr.StartSpan(p, "client", "exec")
		inner := tr.StartSpan(p, "pool", "borrow")
		outer.End(p) // ends before its child
		inner.End(p)
		inner.End(p) // double End is a no-op
		after := tr.StartSpan(p, "client", "exec")
		if after.Parent != 0 {
			t.Errorf("stack wedged: new root has parent %d", after.Parent)
		}
		after.End(p)
	})
}

func TestDeterministicIDsUnderFixedSeed(t *testing.T) {
	scenario := func(p *sim.Proc, tr *Tracer) {
		root := tr.StartSpan(p, "client", "exec")
		p.Sleep(3 * time.Millisecond)
		child := tr.StartSpan(p, "server", "exec")
		child.SetAttrInt("seq", 7)
		child.End(p)
		root.End(p)
	}
	a := runTraced(42, scenario)
	b := runTraced(42, scenario)
	if len(a.Spans()) != len(b.Spans()) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans()), len(b.Spans()))
	}
	for i, sp := range a.Spans() {
		other := b.Spans()[i]
		if sp.ID != other.ID || sp.Trace != other.Trace || sp.Parent != other.Parent {
			t.Fatalf("span %d IDs differ across same-seed runs: %+v vs %+v", i, sp, other)
		}
	}
	ja, err := a.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("same-seed exports are not byte-identical")
	}

	c := runTraced(43, scenario)
	if c.Spans()[0].ID == a.Spans()[0].ID {
		t.Fatal("different seeds produced the same span ID stream")
	}
}

func TestOrphanDetectionAndExportExclusion(t *testing.T) {
	tr := runTraced(3, func(p *sim.Proc, tr *Tracer) {
		done := tr.StartSpan(p, "client", "exec")
		done.End(p)
		leaked := tr.StartSpan(p, "pool", "borrow")
		_ = leaked // never ended
	})
	if n := tr.Orphans(); n != 1 {
		t.Fatalf("orphans = %d, want 1", n)
	}
	data, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("export contains %d spans, want 1 (orphan excluded)", len(spans))
	}
	if spans[0].Stage != "client" {
		t.Fatalf("wrong span exported: %+v", spans[0])
	}
}

func TestSeqLinksJoinTracesAcrossProcs(t *testing.T) {
	env := sim.NewEnv(4)
	tr := NewTracer(env)
	origin, other := new(int), new(int) // two masters' logs
	var writeTrace uint64
	env.Go("writer", func(p *sim.Proc) {
		sp := tr.StartSpan(p, "server", "exec")
		writeTrace = sp.Trace
		tr.LinkSeq(origin, 17, sp)
		sp.End(p)
	})
	env.Go("applier", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // run after the writer
		asp := tr.StartLinked(p, "apply", "apply", tr.SeqRef(origin, 17))
		if asp.Trace != writeTrace {
			t.Errorf("apply span trace %d, want the write's trace %d", asp.Trace, writeTrace)
		}
		asp.End(p)

		// Unknown sequence → zero Ref → fresh trace.
		fresh := tr.StartLinked(p, "apply", "apply", tr.SeqRef(origin, 999))
		if fresh.Trace == writeTrace || fresh.Parent != 0 {
			t.Errorf("unknown seq did not root a fresh trace: %+v", fresh)
		}
		fresh.End(p)

		// The same sequence number in another master's log is another entry.
		if ref := tr.SeqRef(other, 17); ref != (Ref{}) {
			t.Errorf("seq 17 of a different log resolved to %+v", ref)
		}
	})
	env.Run()
}

func TestNilTracerAndSpanAreSafe(t *testing.T) {
	var tr *Tracer
	origin := new(int)
	env := sim.NewEnv(5)
	env.Go("test", func(p *sim.Proc) {
		sp := tr.StartSpan(p, "client", "exec")
		sp.SetAttr("k", "v")
		sp.SetAttrInt("n", 1)
		sp.End(p)
		tr.LinkSeq(origin, 1, sp)
		lsp := tr.StartLinked(p, "apply", "apply", tr.SeqRef(origin, 1))
		lsp.End(p)
	})
	env.Run()
	if tr.Spans() != nil || tr.Orphans() != 0 {
		t.Fatal("nil tracer reported spans")
	}
}

func TestExportParseRoundtrip(t *testing.T) {
	tr := runTraced(6, func(p *sim.Proc, tr *Tracer) {
		root := tr.StartSpan(p, "client", "exec")
		p.Sleep(2 * time.Millisecond)
		child := tr.StartSpan(p, "proxy", "route")
		child.SetAttr("kind", "write")
		child.SetAttrInt("attempts", 2)
		p.Sleep(time.Millisecond)
		child.End(p)
		root.End(p)
	})
	data, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("parsed %d spans, want 2", len(spans))
	}
	var root, child ParsedSpan
	for _, sp := range spans {
		if sp.Stage == "client" {
			root = sp
		} else {
			child = sp
		}
	}
	if child.Parent != root.ID || child.Trace != root.Trace {
		t.Fatalf("parsed linkage broken: root=%+v child=%+v", root, child)
	}
	if child.Attrs["kind"] != "write" || child.Attrs["attempts"] != "2" {
		t.Fatalf("attrs lost in roundtrip: %v", child.Attrs)
	}
	if child.DurMs() != 1 {
		t.Fatalf("child duration %v ms, want 1", child.DurMs())
	}
	if root.EndUs() < child.EndUs() {
		t.Fatal("root ended before its child")
	}
}

func TestFlattenHistogram(t *testing.T) {
	var h metrics.Histogram
	h.Record(2 * time.Millisecond)
	h.Record(4 * time.Millisecond)

	snap := map[string]float64{"old": 1}
	if sum := FlattenHistogram(snap, "client.exec", &h); sum != h.Summary() {
		t.Errorf("returned summary %+v, want the histogram's %+v", sum, h.Summary())
	}
	if snap["client.exec.count"] != 2 {
		t.Errorf("hist count = %v, want 2", snap["client.exec.count"])
	}
	if snap["client.exec.mean_ms"] != 3 {
		t.Errorf("hist mean = %v, want 3", snap["client.exec.mean_ms"])
	}
	if _, ok := snap["client.exec.p95_ms"]; !ok {
		t.Error("hist p95 missing from snapshot")
	}
	if _, ok := snap["client.exec.max_ms"]; !ok {
		t.Error("hist max missing from snapshot")
	}
	if len(snap) != 5 || snap["old"] != 1 {
		t.Errorf("snapshot %v: want the four histogram keys beside what was there", snap)
	}
}

func TestFlatten(t *testing.T) {
	type stats struct {
		Reads    uint64  `metric:"reads"`
		Idle     int     `metric:"pool.idle"`
		Share    float64 `metric:"share"`
		Small    uint8   `metric:"small"`
		Degraded bool    `metric:"-"`
		Hidden   uint64  `metric:"-"`
		private  int
	}
	in := stats{Reads: 7, Idle: -2, Share: 0.25, Small: 3, Degraded: true, Hidden: 9, private: 1}
	want := map[string]float64{"old": 1, "c0.reads": 7, "c0.pool.idle": -2, "c0.share": 0.25, "c0.small": 3}
	for _, arg := range []any{in, &in} {
		got := map[string]float64{"old": 1}
		Flatten(got, "c0.", arg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Flatten(%T) = %v, want %v", arg, got, want)
		}
	}

	mustPanic := func(name string, stats any) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Flatten accepted %s", name)
			}
		}()
		Flatten(map[string]float64{}, "", stats)
	}
	mustPanic("a non-struct", 42)
	mustPanic("a nil pointer", (*stats)(nil))
	mustPanic("an untagged exported field", struct{ N uint64 }{})
	mustPanic("an empty tag", struct {
		N uint64 `metric:""`
	}{})
	mustPanic("a named non-numeric field", struct {
		On bool `metric:"on"`
	}{})
}

// synthetic spans for the summary helpers: one full-pipeline trace (id 1)
// and one partial trace (id 2) that starts earlier but lacks stages.
func summaryFixture() []ParsedSpan {
	mk := func(trace, id, parent uint64, stage string, ts, dur float64) ParsedSpan {
		return ParsedSpan{Name: stage, Stage: stage, Trace: trace, ID: id,
			Parent: parent, TSUs: ts, DurUs: dur}
	}
	return []ParsedSpan{
		mk(2, 20, 0, "client", 0, 50),
		mk(1, 10, 0, "client", 100, 1000),
		mk(1, 11, 10, "pool", 110, 20),
		mk(1, 12, 10, "proxy", 140, 800),
		mk(1, 13, 12, "server", 200, 600),
		mk(1, 14, 13, "binlog", 900, 300),
		mk(1, 15, 14, "apply", 1300, 400),
	}
}

func TestFullTraceAndCriticalPath(t *testing.T) {
	spans := summaryFixture()
	trace, ok := FullTrace(spans)
	if !ok || trace != 1 {
		t.Fatalf("FullTrace = %d, %v; want 1, true", trace, ok)
	}
	path := CriticalPath(spans, trace)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	if path[0].ID != 10 {
		t.Fatalf("path does not start at the root: %+v", path[0])
	}
	last := path[len(path)-1]
	if last.Stage != "apply" {
		t.Fatalf("path does not end at the latest-ending span: %+v", last)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Parent != path[i-1].ID {
			t.Fatalf("path link %d broken: %+v -> %+v", i, path[i-1], path[i])
		}
	}
	if _, ok := FullTrace(spans[:1]); ok {
		t.Fatal("partial trace reported as full")
	}
}

func TestStageStatsCanonicalOrder(t *testing.T) {
	stats := StageStats(summaryFixture())
	if len(stats) != len(Stages) {
		t.Fatalf("got %d stages, want %d", len(stats), len(Stages))
	}
	for i, st := range stats {
		if st.Stage != Stages[i] {
			t.Fatalf("stage %d = %q, want canonical %q", i, st.Stage, Stages[i])
		}
	}
	if stats[0].Count != 2 { // two client spans
		t.Fatalf("client count = %d, want 2", stats[0].Count)
	}
}
