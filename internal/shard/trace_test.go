package shard

import (
	"strings"
	"testing"
	"time"

	"cloudrepl/internal/obs"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// TestTraceLinksStayInsideTheirCell: every cell's master numbers its binlog
// from 1 and all cells share one tracer, so a ship or apply span must find
// the write that committed its entry by (log, sequence) — by sequence alone
// it joins whichever cell committed that number last, and a slave of cell 0
// shows up in the trace of a write on cell 1's master.
func TestTraceLinksStayInsideTheirCell(t *testing.T) {
	env, _, sc := newShard(t, 5, 2, 20)
	tr := obs.NewTracer(env)
	sc.SetTracer(tr)
	const clients, rounds = 16, 100
	for c := 0; c < clients; c++ {
		c := c
		env.Go("client", func(p *sim.Proc) {
			conn := sc.Connect("app")
			for i := 0; i < rounds; i++ {
				id := int64(1000 + c*rounds + i)
				if _, err := conn.Exec(p, "INSERT INTO kv (id, v) VALUES (?, 'w')", sqlengine.NewInt(id)); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if _, err := conn.Exec(p, "SELECT COUNT(*) FROM kv"); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
			}
		})
	}
	env.RunUntil(sim.Time(10 * time.Minute))
	env.Stop()
	env.Shutdown()

	raw, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ParseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]obs.ParsedSpan, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	cellOf := func(node string) string { return node[:strings.IndexByte(node, '/')+1] }
	linked, crossed := 0, 0
	for _, sp := range spans {
		if sp.Name != "ship" && sp.Name != "apply" || sp.Parent == 0 {
			continue
		}
		write, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("%s span's parent %#x is not in the export", sp.Name, sp.Parent)
		}
		linked++
		if slave, master := sp.Attrs["slave"], write.Attrs["server"]; cellOf(slave) != cellOf(master) {
			crossed++
			if crossed <= 3 {
				t.Errorf("%s on %s (seq %s%s) joined the trace of a write on %s",
					sp.Name, slave, sp.Attrs["seq"], sp.Attrs["first_seq"], master)
			}
		}
	}
	if linked < clients*rounds {
		t.Fatalf("only %d linked ship/apply spans for %d writes: the run did not exercise the link", linked, clients*rounds)
	}
	if crossed > 0 {
		t.Errorf("%d of %d linked ship/apply spans sit in another cell's trace", crossed, linked)
	}
}
