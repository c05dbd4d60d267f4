package repl

import "slices"

// Executed is a set of binlog sequences: every one up to Low, plus sorted
// members above it. It is a replica's position when entries complete out of
// order (MySQL's gtid_executed, in miniature); Executed{Low: pos} is a
// position that has no gap.
type Executed struct {
	Low   uint64
	above []uint64 // sorted, each > Low+1
}

// Has reports whether seq is in the set.
func (x *Executed) Has(seq uint64) bool {
	_, above := slices.BinarySearch(x.above, seq)
	return seq <= x.Low || above
}

// Add puts seq in the set, advancing Low across the run it completes. An
// in-order Add (seq is Low+1, nothing above) allocates nothing.
func (x *Executed) Add(seq uint64) {
	i, ok := slices.BinarySearch(x.above, seq)
	switch {
	case seq > x.Low+1 && !ok:
		x.above = slices.Insert(x.above, i, seq)
	case seq == x.Low+1:
		// Every member is above seq (i is 0): step Low over the run they
		// continue, then drop that run from the front.
		x.Low = seq
		for i < len(x.above) && x.above[i] == x.Low+1 {
			x.Low++
			i++
		}
		x.above = x.above[:copy(x.above, x.above[i:])]
	}
}

// Trim returns a copy of the set without the members past end: where a
// replica stands against a log that ends at end, whose later entries at
// those numbers are other statements.
func (x Executed) Trim(end uint64) Executed {
	if x.Low >= end {
		return Executed{Low: end}
	}
	i, _ := slices.BinarySearch(x.above, end+1)
	return Executed{Low: x.Low, above: slices.Clone(x.above[:i])}
}

// clone returns a copy of the set that shares no storage with x.
func (x Executed) clone() Executed { return Executed{Low: x.Low, above: slices.Clone(x.above)} }
