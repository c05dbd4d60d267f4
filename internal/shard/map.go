package shard

import (
	"fmt"
	"slices"
	"sort"
)

// Map is one slot→cell assignment. Keys hash onto a fixed number of slots
// (hash sharding); slots are assigned to cells in contiguous ranges (range
// ownership), so a split moves a compact slot range rather than rehashing
// the world. A map is immutable: Move returns the next version, the cluster
// swaps it in at cutover, and a connection keeps the map it routed on, so a
// statement routed on a stale map fails typed (proxy.ErrWrongShard) instead
// of silently landing on the wrong cell.
type Map struct {
	slots   []int // slot -> owning cell id
	cells   []int // distinct owners in slots, ascending
	version uint64
}

// NewMap assigns numSlots slots to cells in contiguous near-equal ranges.
func NewMap(numSlots, cells int) *Map {
	if numSlots < 1 || cells < 1 || cells > numSlots {
		panic(fmt.Sprintf("shard: bad map shape %d slots / %d cells", numSlots, cells))
	}
	slots := make([]int, numSlots)
	for s := range slots {
		slots[s] = s * cells / numSlots
	}
	return newMap(slots, 1)
}

// newMap builds the map of the given assignment, which it keeps.
func newMap(slots []int, version uint64) *Map {
	m := &Map{slots: slots, version: version}
	for _, c := range slots {
		if !slices.Contains(m.cells, c) {
			m.cells = append(m.cells, c)
		}
	}
	sort.Ints(m.cells)
	return m
}

// NumSlots returns the fixed slot count.
func (m *Map) NumSlots() int { return len(m.slots) }

// Version returns the map's version; each Move returns the next one.
func (m *Map) Version() uint64 { return m.version }

// SlotOf returns the slot a key hashes to — independent of version.
func (m *Map) SlotOf(key int64) int { return slotOf(key, len(m.slots)) }

// Owner returns the cell owning a key.
func (m *Map) Owner(key int64) int { return m.slots[m.SlotOf(key)] }

// SlotOwner returns the cell owning a slot.
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

// Cells returns the distinct cell ids owning at least one slot, ascending —
// the scatter-gather target set. The slice belongs to the map and is shared
// by everyone routing on it: read it, do not modify it.
func (m *Map) Cells() []int { return m.cells }

// Move returns the next version of the map, with the given slots reassigned
// to dst; m itself is unchanged. Installing it is the cutover instant of a
// split: it must happen only after dst holds every row of the moved slots.
func (m *Map) Move(slots []int, dst int) *Map {
	next := slices.Clone(m.slots)
	for _, s := range slots {
		next[s] = dst
	}
	return newMap(next, m.version+1)
}
