package shard

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestMapShapes checks the constructor's invariants over a grid of shapes:
// every slot has exactly one owner, loads are near-equal, and ranges are
// contiguous (range ownership over hash slots).
func TestMapShapes(t *testing.T) {
	for _, slots := range []int{1, 2, 16, 64, 97} {
		for cells := 1; cells <= slots && cells <= 9; cells++ {
			m := NewMap(slots, cells)
			loads := make([]int, cells)
			total, minL, maxL := 0, slots, 0
			for c := range loads {
				n := len(m.SlotsOwnedBy(c))
				loads[c] = n
				total += n
				if n < minL {
					minL = n
				}
				if n > maxL {
					maxL = n
				}
			}
			if total != slots {
				t.Fatalf("%d/%d: %d slots owned, want %d (exactly one owner each)", slots, cells, total, slots)
			}
			if maxL-minL > 1 {
				t.Fatalf("%d/%d: loads %v not near-equal", slots, cells, loads)
			}
			prev := -1
			for s := 0; s < slots; s++ {
				if c := m.slots[s]; c < prev {
					t.Fatalf("%d/%d: ranges not contiguous at slot %d", slots, cells, s)
				} else {
					prev = c
				}
			}
		}
	}
}

func TestNewMapRejectsBadShapes(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {4, 0}, {4, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMap(%d, %d) did not panic", tc[0], tc[1])
				}
			}()
			NewMap(tc[0], tc[1])
		}()
	}
}

// TestAssignmentStability is the property that makes splits cheap: a key's
// slot never depends on the map version or the cell count, so moving a slot
// set relocates exactly the keys of those slots and no others.
func TestAssignmentStability(t *testing.T) {
	m := NewMap(64, 2)
	keys := make([]int64, 0, 512)
	for k := int64(-255); k <= 256; k++ {
		keys = append(keys, k*7919) // spread over the int64 range, incl. negatives
	}
	slotBefore := make(map[int64]int, len(keys))
	ownerBefore := make(map[int64]int, len(keys))
	for _, k := range keys {
		slotBefore[k] = m.SlotOf(k)
		ownerBefore[k] = m.Owner(k)
	}
	moved := map[int]bool{3: true, 17: true, 40: true}
	m = m.Move([]int{3, 17, 40}, 5)
	for _, k := range keys {
		if got := m.SlotOf(k); got != slotBefore[k] {
			t.Fatalf("key %d changed slot %d -> %d across Move", k, slotBefore[k], got)
		}
		want := ownerBefore[k]
		if moved[slotBefore[k]] {
			want = 5
		}
		if got := m.Owner(k); got != want {
			t.Fatalf("key %d owner = %d, want %d", k, got, want)
		}
	}
	// Same function across tables: equal key values co-locate.
	if m.SlotOf(42) != slotOf(42, 64) {
		t.Fatal("Map.SlotOf disagrees with package slotOf")
	}
}

// TestExactlyOneOwnerAcrossMoves walks a map through a split-like sequence
// of moves and checks after each step that every slot — hence every key —
// has exactly one owner.
func TestExactlyOneOwnerAcrossMoves(t *testing.T) {
	m := NewMap(32, 1)
	steps := [][]int{
		m.SlotsOwnedBy(0)[16:], // split: upper half to cell 1
		{0, 1, 2, 3},           // rebalance a prefix to cell 2
		{31},                   // a single slot back and forth
	}
	dst := 1
	for _, slots := range steps {
		v0 := m.Version()
		m = m.Move(slots, dst)
		if m.Version() != v0+1 {
			t.Fatalf("version %d after Move, want %d", m.Version(), v0+1)
		}
		owned := 0
		for c := 0; c <= dst; c++ {
			owned += len(m.SlotsOwnedBy(c))
		}
		if owned != m.NumSlots() {
			t.Fatalf("%d slots owned after move to %d, want %d", owned, dst, m.NumSlots())
		}
		dst++
	}
}

// TestMoveLeavesConnMapUnchanged: a Move returns the next map and leaves
// the one a connection holds as it was, so the connection keeps routing on
// the topology it connected under — the stale-map behaviour the
// ErrWrongShard retry path depends on.
func TestMoveLeavesConnMapUnchanged(t *testing.T) {
	m := NewMap(16, 2)
	sc := &Cluster{m: m}
	conn := sc.Connect("app")
	sc.m = m.Move(m.SlotsOwnedBy(1), 2)
	if conn.m != m || m.Version() != 1 || sc.m.Version() != 2 {
		t.Fatalf("connection holds version %d, cluster %d: want 1 and 2", conn.m.Version(), sc.m.Version())
	}
	for s := 0; s < 16; s++ {
		if want := s * 2 / 16; m.slots[s] != want {
			t.Fatalf("slot %d of the held map is owned by %d after the Move, want %d", s, m.slots[s], want)
		}
	}
	if cells := m.Cells(); len(cells) != 2 || cells[0] != 0 || cells[1] != 1 {
		t.Fatalf("held map's cells = %v, want [0 1]", cells)
	}
	if cells := sc.m.Cells(); len(cells) != 2 || cells[0] != 0 || cells[1] != 2 {
		t.Fatalf("moved map's cells = %v, want [0 2]", cells)
	}
	conn.refresh()
	if conn.m != sc.m {
		t.Fatal("refresh did not take the cluster's map")
	}
}

// TestOwnsForMatchesMap: the preload predicate remembers the last table it was
// asked about, and must still answer exactly what the map and the keyspace say
// for any call order — table-major as the load asks, and a seeded interleaving
// that mixes the case of a name, a global table and one the keyspace does not
// know — for every cell of a 2-cell and a 3-cell map, and for a split-created
// cell, which owns no sharded row.
func TestOwnsForMatchesMap(t *testing.T) {
	ks := testKS()
	tables := []string{"tags", "users", "events", "Events", "attendance", "EVENTS", "comments", "events"}
	type ask struct {
		table string
		key   int64
	}
	var tableMajor []ask
	for _, table := range tables {
		for key := int64(-3); key <= 300; key++ {
			tableMajor = append(tableMajor, ask{table, key})
		}
	}
	interleaved := append([]ask(nil), tableMajor...)
	rand.New(rand.NewSource(41)).Shuffle(len(interleaved), func(i, j int) {
		interleaved[i], interleaved[j] = interleaved[j], interleaved[i]
	})
	check := func(name string, m *Map, cell int) {
		t.Helper()
		for order, asks := range map[string][]ask{"table-major": tableMajor, "interleaved": interleaved} {
			owns := ownsFor(ks, m, cell)
			for _, a := range asks {
				want := !ks.sharded(strings.ToLower(a.table)) || m != nil && m.Owner(a.key) == cell
				if got := owns(a.table, a.key); got != want {
					t.Fatalf("%s, %s order: owns(%q, %d) = %v, the map says %v", name, order, a.table, a.key, got, want)
				}
			}
		}
	}
	for _, cells := range []int{2, 3} {
		m := NewMap(numSlots, cells)
		for cell := 0; cell < cells; cell++ {
			check(fmt.Sprintf("cell %d of %d", cell, cells), m, cell)
		}
	}
	check("a split-created cell", nil, 0)
}
