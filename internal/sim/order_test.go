package sim_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"cloudrepl/internal/experiment"
	"cloudrepl/internal/sim"
)

// TestEventOrderGolden hashes (at, seq, proc id) of every event the kernel
// bench dispatches — its pure-kernel micro workload and one Cloudstone cell
// on the quick protocol — and holds the digest to the one the kernel gave
// before any process dispatched events itself. Which goroutine dispatches an
// event must never change which event comes next.
func TestEventOrderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Cloudstone cell")
	}
	h := fnv.New64a()
	var events uint64
	var buf [24]byte
	sim.TraceDispatch(func(at sim.Time, seq, proc uint64) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], seq)
		binary.LittleEndian.PutUint64(buf[16:], proc)
		h.Write(buf[:])
		events++
	})
	defer sim.TraceDispatch(nil)
	if _, err := experiment.KernelBench(experiment.SweepOpts{Seed: 1, Short: true}, 0); err != nil {
		t.Fatal(err)
	}
	const want = "1124779 events, fnv64a 8d896337dc0f14e3"
	if got := fmt.Sprintf("%d events, fnv64a %016x", events, h.Sum64()); got != want {
		t.Fatalf("event order: %s; want %s", got, want)
	}
}
