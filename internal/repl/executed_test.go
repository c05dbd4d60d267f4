package repl

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
)

func TestExecuted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		from   uint64
		adds   []uint64
		low    uint64
		above  []uint64
		has    []uint64
		hasNot []uint64
	}{
		{name: "in order", from: 3, adds: []uint64{4, 5, 6}, low: 6, has: []uint64{1, 6}, hasNot: []uint64{7}},
		{name: "out of order", from: 3, adds: []uint64{5, 7}, low: 3, above: []uint64{5, 7}, has: []uint64{3, 5, 7}, hasNot: []uint64{4, 6, 8}},
		{name: "run completes", from: 3, adds: []uint64{6, 5, 8, 4}, low: 6, above: []uint64{8}, has: []uint64{4, 5, 6, 8}, hasNot: []uint64{7, 9}},
		{name: "gap fills to the top", from: 0, adds: []uint64{3, 2, 1}, low: 3, has: []uint64{1, 2, 3}, hasNot: []uint64{4}},
		{name: "repeats and old members", from: 5, adds: []uint64{2, 8, 8, 5}, low: 5, above: []uint64{8}, has: []uint64{2, 8}, hasNot: []uint64{6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := Executed{Low: tc.from}
			for _, s := range tc.adds {
				x.Add(s)
			}
			if x.Low != tc.low || !slices.Equal(x.above, tc.above) {
				t.Fatalf("Low %d above %v; want %d %v", x.Low, x.above, tc.low, tc.above)
			}
			for _, s := range tc.has {
				if !x.Has(s) {
					t.Errorf("Has(%d) false", s)
				}
			}
			for _, s := range tc.hasNot {
				if x.Has(s) {
					t.Errorf("Has(%d) true inside a gap or past the top", s)
				}
			}
		})
	}
}

// TestExecutedInOrderAddAllocatesNothing: the single SQL thread adds every
// entry in order, on every replica of every workload.
func TestExecutedInOrderAddAllocatesNothing(t *testing.T) {
	x := Executed{Low: 10}
	if n := testing.AllocsPerRun(1000, func() { x.Add(x.Low + 1) }); n != 0 {
		t.Fatalf("in-order Add: %v allocs, want 0", n)
	}
	if len(x.above) != 0 {
		t.Fatalf("in-order Adds left %v above Low", x.above)
	}
}

func TestExecutedTrim(t *testing.T) {
	x := Executed{Low: 4}
	for _, s := range []uint64{6, 8, 9} {
		x.Add(s)
	}
	for _, tc := range []struct {
		end   uint64
		low   uint64
		above []uint64
	}{
		{end: 20, low: 4, above: []uint64{6, 8, 9}},
		{end: 8, low: 4, above: []uint64{6, 8}},
		{end: 7, low: 4, above: []uint64{6}},
		{end: 5, low: 4},
		{end: 2, low: 2},
	} {
		y := x.Trim(tc.end)
		if y.Low != tc.low || !slices.Equal(y.above, tc.above) {
			t.Errorf("Trim(%d): Low %d above %v; want %d %v", tc.end, y.Low, y.above, tc.low, tc.above)
		}
		y.Add(7)
	}
	if !slices.Equal(x.above, []uint64{6, 8, 9}) {
		t.Fatalf("an Add to a trimmed copy reached the original: %v", x.above)
	}
}

// TestAttachSkipsExecutedMembers: a replica that ran two entries ahead of a
// gap is attached with that executed set, trimmed at the log's end. The two
// are not shipped again — replaying an INSERT is a duplicate key — and a
// member past the log's end is dropped, so the entry the master later logs
// at that number still arrives.
func TestAttachSkipsExecutedMembers(t *testing.T) {
	r := newRig(t, 14, 0, Async, sameZone())
	for i := 0; i < 5; i++ {
		r.write(t, i, "w")
	}
	r.env.RunUntil(10 * time.Second)
	base := r.master.Srv.Log.LastSeq() - 5

	srv := server.New(r.env, "slave1", r.cloud.Launch("slave1", cloud.Small, sameZone()), server.DefaultCostModel())
	sess := srv.Session("")
	for _, sql := range []string{"CREATE DATABASE app", "USE app", "CREATE TABLE t (id BIGINT PRIMARY KEY, v VARCHAR(40))"} {
		if _, err := srv.ExecFree(sess, sql); err != nil {
			t.Fatal(err)
		}
	}
	from := Executed{Low: base}
	for _, i := range []int{1, 3} {
		if _, err := srv.ExecFree(sess, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'w')", i)); err != nil {
			t.Fatal(err)
		}
		from.Add(base + 1 + uint64(i))
	}
	from.Add(base + 7) // ran on a master whose log is now lost
	sl := NewSlave(r.env, srv)
	if err := r.master.Attach(sl, from.Trim(r.master.Srv.Log.LastSeq())); err != nil {
		t.Fatal(err)
	}
	r.write(t, 5, "w")
	r.env.RunUntil(20 * time.Second)
	r.write(t, 6, "w")
	r.env.RunUntil(time.Minute)

	if n := sl.ApplyErrors(); n != 0 {
		t.Errorf("%d apply error(s); want 0", n)
	}
	if n := r.slaveCount(t, sl); n != 7 {
		t.Errorf("replica holds %d rows, want 7", n)
	}
	if got, want := srv.Eng.Digest(), r.master.Srv.Eng.Digest(); got != want {
		t.Errorf("replica holds\n%s\nthe master\n%s", got, want)
	}
	if got, want := sl.AppliedSeq(), r.master.Srv.Log.LastSeq(); got != want {
		t.Errorf("AppliedSeq %d, want the log's end %d", got, want)
	}
	r.env.Stop()
	r.env.Shutdown()
}
