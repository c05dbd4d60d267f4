package shard

import (
	"fmt"
	"slices"
	"sort"
)

// Map is the authoritative slot→cell assignment. Keys hash onto a fixed
// number of slots (hash sharding); slots are assigned to cells in
// contiguous ranges (range ownership), so a split moves a compact slot
// range rather than rehashing the world. The map is versioned: every Move
// bumps Version, and routers carry immutable Snapshots so a statement
// routed on a stale map fails typed (proxy.ErrWrongShard) instead of
// silently landing on the wrong cell.
type Map struct {
	numSlots int
	slots    []int // slot -> owning cell id
	version  uint64
	snap     *Snapshot // the current version's snapshot, built on first use
}

// NewMap assigns numSlots slots to cells in contiguous near-equal ranges.
func NewMap(numSlots, cells int) *Map {
	if numSlots < 1 || cells < 1 || cells > numSlots {
		panic(fmt.Sprintf("shard: bad map shape %d slots / %d cells", numSlots, cells))
	}
	m := &Map{numSlots: numSlots, slots: make([]int, numSlots), version: 1}
	for s := 0; s < numSlots; s++ {
		m.slots[s] = s * cells / numSlots
	}
	return m
}

// NumSlots returns the fixed slot count.
func (m *Map) NumSlots() int { return m.numSlots }

// Version returns the current map version; it increases on every Move.
func (m *Map) Version() uint64 { return m.version }

// SlotOf returns the slot a key hashes to — independent of version.
func (m *Map) SlotOf(key int64) int { return slotOf(key, m.numSlots) }

// Owner returns the cell currently owning a key.
func (m *Map) Owner(key int64) int { return m.slots[m.SlotOf(key)] }

// SlotOwner returns the cell currently owning a slot.
func (m *Map) SlotOwner(slot int) int { return m.slots[slot] }

// SlotsOwnedBy returns the slots a cell owns, ascending.
func (m *Map) SlotsOwnedBy(cell int) []int {
	var out []int
	for s, c := range m.slots {
		if c == cell {
			out = append(out, s)
		}
	}
	return out
}

// CellLoads returns slot counts per cell id up to maxCell (inclusive).
func (m *Map) CellLoads(maxCell int) []int {
	out := make([]int, maxCell+1)
	for _, c := range m.slots {
		if c >= 0 && c <= maxCell {
			out[c]++
		}
	}
	return out
}

// Move reassigns the given slots to dst and bumps the version. This is the
// cutover instant of a split: it must happen only after dst holds every
// row of the moved slots.
func (m *Map) Move(slots []int, dst int) {
	for _, s := range slots {
		m.slots[s] = dst
	}
	m.version++
	m.snap = nil
}

// Snapshot returns an immutable copy for a router to route against. A
// snapshot is never written once built, so every caller between two Moves
// gets the same one, and what is derived from it — the scatter target list —
// is computed once per map version.
func (m *Map) Snapshot() *Snapshot {
	if m.snap == nil {
		s := &Snapshot{numSlots: m.numSlots, version: m.version, slots: append([]int(nil), m.slots...)}
		for _, c := range s.slots {
			if !slices.Contains(s.cells, c) {
				s.cells = append(s.cells, c)
			}
		}
		sort.Ints(s.cells)
		m.snap = s
	}
	return m.snap
}

// Snapshot is a frozen view of the map. Connections cache one and refresh
// it only on proxy.ErrWrongShard, so the stale-map retry path is exercised
// by every topology change rather than hidden by eager invalidation.
type Snapshot struct {
	numSlots int
	slots    []int
	cells    []int // distinct owners in slots, ascending
	version  uint64
}

// Version returns the version the snapshot was taken at.
func (s *Snapshot) Version() uint64 { return s.version }

// SlotOf returns the slot a key hashes to.
func (s *Snapshot) SlotOf(key int64) int { return slotOf(key, s.numSlots) }

// Owner returns the cell owning a key in this snapshot.
func (s *Snapshot) Owner(key int64) int { return s.slots[s.SlotOf(key)] }

// Cells returns the distinct cell ids owning at least one slot, ascending —
// the scatter-gather target set. The slice belongs to the snapshot and is
// shared by everyone routing on it: read it, do not modify it.
func (s *Snapshot) Cells() []int { return s.cells }
