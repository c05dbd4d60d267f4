package sqlengine

import "fmt"

// This file is the row store (DESIGN.md §12): the only code that reads or
// writes a table's row storage — heap, primary key, index buckets, version
// chains, graveyard. The rest of the package goes through rowStore's methods,
// and cloudrepl-lint's mvccalias holds every other file to that.
//
// Rows, row images and chain nodes are bump-allocated from per-table slabs:
// chunks that grow geometrically to slabMax slots and never move, so a *Row is
// stable for the row's life. A chunk lives while any row or image in it is
// reachable; an image is immutable once published; a slot is never reused (an
// undone insert wastes its own); prune and undo zero the Row and rowVersion
// headers they free and never an image slot — a published image may be shared
// with every store restored from a capture of this one (storeImage).

const slabMin, slabMax = 16, 1024 // slots in a slab's first and largest chunk

// slab bump-allocates runs of n T's; every take of one slab uses the same n.
type slab[T any] struct {
	free  []T // unallocated tail of the newest chunk
	slots int // size of the newest chunk
}

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.slots = min(max(2*s.slots, slabMin), slabMax)
		s.free = make([]T, s.slots*n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// slabMark is where a slab stands: its newest chunk's size and how much of
// that chunk is unallocated. A slab resumed from a mark allocates its next
// chunk when, and as large as, the slab the mark was taken from will.
type slabMark struct{ slots, free int }

func (s *slab[T]) mark() slabMark { return slabMark{s.slots, len(s.free)} }

func resume[T any](m slabMark) slab[T] { return slab[T]{free: make([]T, m.free), slots: m.slots} }

// Row is a stored tuple. Rows have stable identity so index buckets can
// reference them across updates. MVCC state rides on the row: begin and end
// are the commit versions bounding the current image's visibility (end 0 =
// still live), prev chains superseded committed images newest-first, and
// txn marks an image provisionally written by an open transaction.
type Row struct {
	vals    []Value
	begin   uint64
	end     uint64
	prev    *rowVersion
	txn     *Session
	chained bool // on the store's chained list
}

// Values returns the row's values aligned with the table's columns. The
// returned slice is the live storage; callers must not modify it.
func (r *Row) Values() []Value { return r.vals }

// rowVersion is one superseded committed image in a row's version chain,
// newest first. end is the commit version of the write that superseded it
// (0 while that write is still provisional).
type rowVersion struct {
	vals       []Value
	begin, end uint64
	prev       *rowVersion
}

// provisionalVersion marks a begin/end stamp belonging to an open transaction:
// above every real commit version, so committed-image visibility tests fail
// naturally, while the row's txn field routes the owner to its own writes.
const provisionalVersion = ^uint64(0)

// readView is who reads and as of when: the session (nil for engine-level
// readers such as Snapshot), its read version, and whether visibility must be
// resolved through the version chains (readViewFor).
type readView struct {
	s      *Session
	at     uint64
	chains bool
}

// visibleTo resolves the image of r that v's reader sees, with its begin
// stamp, or nil if none. A session always sees its own provisional writes and
// never its own pending deletes.
func (r *Row) visibleTo(v readView) ([]Value, uint64) {
	if r.txn != nil && r.txn == v.s {
		if r.end != 0 {
			return nil, 0 // own pending delete
		}
		return r.vals, r.begin // own insert/update
	}
	if r.txn == nil {
		if r.begin <= v.at && (r.end == 0 || r.end > v.at) {
			return r.vals, r.begin
		}
	} else if r.end != 0 && r.begin <= v.at {
		// Foreign pending DELETE of a committed image: the delete has not
		// committed, so the image stays visible to everyone else.
		return r.vals, r.begin
	}
	for c := r.prev; c != nil; c = c.prev {
		if c.begin <= v.at && (c.end == 0 || c.end > v.at) {
			return c.vals, c.begin
		}
	}
	return nil, 0
}

// Index is a hash index over one or more columns: a secondary index, or the
// primary key. A one-column key is the value's hashKey; only a multi-column
// key renders, once per use, into hashKey.s under kind 'c'.
type Index struct {
	Name    string
	Cols    []int // column positions
	Unique  bool
	buckets keyMap[bucket]
}

// bucket is the rows under one key, in insertion order. The first row is
// stored inline; many takes over, holding every row, once there is a second —
// behind a pointer, so the map entry stays small and growing it is not a
// map write.
type bucket struct {
	one  *Row
	many *[]*Row
}

func (ix *Index) key(vals []Value) hashKey {
	if len(ix.Cols) == 1 {
		return vals[ix.Cols[0]].hashKey()
	}
	var kb [64]byte
	b := kb[:0]
	for _, c := range ix.Cols {
		b = vals[c].hashKey().appendTo(b)
	}
	return hashKey{kind: 'c', s: string(b)}
}

// add enters r at the end of its key's bucket; false is a unique violation.
func (ix *Index) add(r *Row) bool {
	k := ix.key(r.vals)
	b, _ := ix.buckets.get(k)
	switch {
	case b.one == nil && b.many == nil:
		ix.buckets.put(k, bucket{one: r})
	case ix.Unique:
		return false
	case b.many == nil:
		many := append(make([]*Row, 0, 4), b.one, r)
		ix.buckets.put(k, bucket{many: &many})
	default:
		*b.many = append(*b.many, r)
	}
	return true
}

// remove takes r out of its key's bucket, keeping the others' order.
func (ix *Index) remove(r *Row) {
	k := ix.key(r.vals)
	b, _ := ix.buckets.get(k)
	if b.many != nil {
		*b.many = without(*b.many, r)
	}
	if b.one == r || b.many != nil && len(*b.many) == 0 {
		ix.buckets.del(k)
	}
}

// without removes r from rows, keeping order; recent rows sit at the end.
func without(rows []*Row, r *Row) []*Row {
	for i := len(rows) - 1; i >= 0; i-- {
		if rows[i] == r {
			copy(rows[i:], rows[i+1:])
			rows[len(rows)-1] = nil
			return rows[:len(rows)-1]
		}
	}
	return rows
}

// rowCursor walks the candidates of one scan or probe: latest rows (the heap
// or a bucket, borrowed) or resolved images (its own buffer, reused).
type rowCursor struct {
	rows   []*Row
	images [][]Value
	one    [1]*Row // backing of an inline bucket
	i      int
}

func (c *rowCursor) len() int { return len(c.rows) + len(c.images) }

func (c *rowCursor) rewind() { c.i = 0 }

// next returns the following candidate's image, false at the end.
func (c *rowCursor) next() ([]Value, bool) {
	switch {
	case c.i < len(c.rows):
		c.i++
		return c.rows[c.i-1].vals, true
	case c.i < len(c.images):
		c.i++
		return c.images[c.i-1], true
	}
	return nil, false
}

// row returns the row whose image next just returned (latest rows only).
func (c *rowCursor) row() *Row { return c.rows[c.i-1] }

// rowStore is one table's row storage.
type rowStore struct {
	table *Table // whose rows these are: labels errors and changes
	ncols int
	pk    *Index   // nil without a primary key
	keyed []*Index // every index a row is entered under: pk first, then the secondary ones
	rows  []*Row   // the live heap, in insertion order
	// graveyard holds deleted rows until prune proves no snapshot reader can
	// still see them; they are out of the heap and the indexes, found only by
	// version-resolving scans.
	graveyard []*Row
	// chained lists the live rows that have a version chain — with the
	// graveyard, all that prune visits.
	chained []*Row

	rowSlab slab[Row]
	imgSlab slab[Value]
	verSlab slab[rowVersion]
}

func newRowStore(t *Table) rowStore {
	st := rowStore{table: t, ncols: len(t.Columns)}
	if len(t.pkCols) > 0 {
		st.pk = &Index{Name: "PRIMARY", Cols: t.pkCols, Unique: true}
		st.keyed = append(st.keyed, st.pk)
	}
	st.keyed = append(st.keyed, t.indexes...)
	st.truncate()
	return st
}

// truncate drops every row. TRUNCATE is DDL, not a versioned write: the
// graveyard and version chains go with the heap, so snapshot readers lose
// pre-truncate images (documented MVCC scope, DESIGN.md §12).
func (st *rowStore) truncate() {
	st.rows, st.graveyard, st.chained = nil, nil, nil
	st.rowSlab, st.imgSlab, st.verSlab = slab[Row]{}, slab[Value]{}, slab[rowVersion]{}
	for _, ix := range st.keyed {
		ix.buckets = keyMap[bucket]{}
	}
}

// live returns the number of rows in the heap.
func (st *rowStore) live() int { return len(st.rows) }

// image returns a fresh row image holding a copy of from, all NULL past it.
func (st *rowStore) image(from []Value) []Value {
	img := st.imgSlab.take(st.ncols)
	copy(img, from)
	return img
}

// images appends the row images v's reader sees to out: the heap as it stands
// or, resolving chains, visible images of heap and not-yet-gone graveyard rows.
func (st *rowStore) images(v readView, out [][]Value) [][]Value {
	if !v.chains {
		for _, r := range st.rows {
			out = append(out, r.vals)
		}
		return out
	}
	for _, rows := range [2][]*Row{st.rows, st.graveyard} {
		for _, r := range rows {
			if img, _ := r.visibleTo(v); img != nil {
				out = append(out, img)
			}
		}
	}
	return out
}

// storeImage is a store as one reader sees it — what capture takes and restore
// builds a store from. rows holds, in scan order (the heap, then what of the
// graveyard the reader still sees), one header per visible row with only vals
// and begin set; vals is the source's own image, shared and never copied.
// keys is how many integral and how many other keys each index of the source
// holds, in keyed order: what restore sizes its maps for. The marks are where
// the source stands in its three slabs and its heap's backing array, for
// restore to leave the new store standing there too.
type storeImage struct {
	rows                      []Row
	keys                      []keyCount
	heapCap                   int
	rowSlab, imgSlab, verSlab slabMark
}

// capture returns the store as v's reader sees it.
func (st *rowStore) capture(v readView) storeImage {
	img := storeImage{
		rows:    make([]Row, 0, len(st.rows)),
		heapCap: cap(st.rows),
		rowSlab: st.rowSlab.mark(), imgSlab: st.imgSlab.mark(), verSlab: st.verSlab.mark(),
	}
	for _, ix := range st.keyed {
		img.keys = append(img.keys, ix.buckets.count())
	}
	for _, rows := range [2][]*Row{st.rows, st.graveyard} {
		for _, r := range rows {
			if vals, begin := r.visibleTo(v); vals != nil {
				img.rows = append(img.rows, Row{vals: vals, begin: begin})
			}
		}
	}
	return img
}

// restore fills an empty store from img in bulk: the rows in one chunk, in
// img's order in the heap and — entered under their keys in that order, which
// is where uniqueness is checked — in every bucket, no image copied, no value
// coerced (the images come from a table of these columns), every map sized
// once. History is not carried: every row is one committed image. A unique
// violation leaves the store empty.
func (st *rowStore) restore(img storeImage) error {
	n := len(img.rows)
	for i, ix := range st.keyed {
		ix.buckets = sized[bucket](img.keys[i])
	}
	chunk := make([]Row, n+img.rowSlab.free)
	copy(chunk, img.rows)
	st.rows = make([]*Row, n, max(n, img.heapCap))
	for i := range st.rows {
		st.rows[i] = &chunk[i]
		if err := st.link(&chunk[i]); err != nil {
			st.truncate()
			return err
		}
	}
	st.rowSlab = slab[Row]{free: chunk[n:], slots: img.rowSlab.slots}
	st.imgSlab, st.verSlab = resume[Value](img.imgSlab), resume[rowVersion](img.verSlab)
	return nil
}

// scan points c at every candidate v's reader must consider.
func (st *rowStore) scan(v readView, c *rowCursor) {
	c.i, c.rows, c.images = 0, st.rows, c.images[:0]
	if v.chains {
		c.rows, c.images = nil, st.images(v, c.images)
	}
}

// probe points c at the latest rows whose column col equals v, in bucket
// order, and reports whether an index on col exists. Indexes cover only
// latest images: a chain-resolving reader scans instead.
func (st *rowStore) probe(col int, v Value, c *rowCursor) bool {
	for _, ix := range st.keyed {
		if len(ix.Cols) == 1 && ix.Cols[0] == col {
			b, _ := ix.buckets.get(v.hashKey())
			c.i, c.rows, c.images = 0, nil, c.images[:0]
			if b.many != nil {
				c.rows = *b.many
			} else if b.one != nil {
				c.one[0] = b.one
				c.rows = c.one[:]
			}
			return true
		}
	}
	return false
}

func (st *rowStore) dupErr(ix *Index) error {
	if ix == st.pk {
		return fmt.Errorf("%w: primary key of table %s", ErrDuplicateKey, st.table.Name)
	}
	return fmt.Errorf("sqlengine: table %s: %w: index %s", st.table.Name, ErrDuplicateKey, ix.Name)
}

// link enters r under its image's keys; a unique violation takes back the
// entries made so far.
func (st *rowStore) link(r *Row) error {
	for i, ix := range st.keyed {
		if !ix.add(r) {
			for _, done := range st.keyed[:i] {
				done.remove(r)
			}
			return st.dupErr(ix)
		}
	}
	return nil
}

// unlink takes r out of the indexes and the heap.
func (st *rowStore) unlink(r *Row) {
	for _, ix := range st.keyed {
		ix.remove(r)
	}
	st.rows = without(st.rows, r)
}

// insert adds a row with image img (coerced, and the store's from here on),
// visible from begin and marked as txn's when an open transaction writes it.
func (st *rowStore) insert(img []Value, begin uint64, txn *Session) (rowChange, error) {
	r := &st.rowSlab.take(1)[0]
	r.vals, r.begin, r.txn = img, begin, txn
	if err := st.link(r); err != nil {
		*r = Row{}
		return rowChange{}, err
	}
	st.rows = append(st.rows, r)
	return rowChange{tbl: st.table, kind: effInsert, r: r}, nil
}

// reimage makes img r's current image, moving r to the end of its secondary
// buckets; on a constraint violation r keeps its image (and may still move).
func (st *rowStore) reimage(r *Row, img []Value) error {
	if st.pk != nil {
		if b, _ := st.pk.buckets.get(st.pk.key(img)); b.one != nil && b.one != r {
			return st.dupErr(st.pk)
		}
	}
	for _, ix := range st.keyed {
		ix.remove(r)
	}
	old := r.vals
	r.vals = img
	err := st.link(r)
	if err != nil {
		r.vals = old
		_ = st.link(r) // its old keys were free a moment ago
	}
	return err
}

// rowChange is one row a write statement touched, as the session's row log
// keeps it: what was done to which table's row and, for a rewrite, the image
// it superseded and — when that image was committed — the chain node now
// holding it.
type rowChange struct {
	tbl    *Table
	kind   effectKind
	r      *Row
	old    []Value
	pushed *rowVersion
}

// effectKind says what a write statement does to the rows it logs.
type effectKind uint8

const (
	effInsert effectKind = iota
	effUpdate
	effDelete
)

// replace rewrites r to img, superseding a committed image on the version
// chain. A row already provisional (same-transaction rewrite, or a foreign open
// writer) is overwritten in place: intra-transaction rewrites create no
// versions, and concurrent writers to one row stay last-write-wins.
func (st *rowStore) replace(r *Row, img []Value, txn *Session) (rowChange, error) {
	c := rowChange{tbl: st.table, kind: effUpdate, r: r, old: r.vals}
	if err := st.reimage(r, img); err != nil {
		return c, err
	}
	if r.txn == nil {
		c.pushed = &st.verSlab.take(1)[0]
		*c.pushed = rowVersion{vals: c.old, begin: r.begin, prev: r.prev}
		r.prev, r.begin, r.txn = c.pushed, provisionalVersion, txn
		st.chain(r)
	}
	return c, nil
}

func (st *rowStore) chain(r *Row) {
	if !r.chained {
		r.chained = true
		st.chained = append(st.chained, r)
	}
}

// bury is the MVCC delete: r leaves the heap and the indexes (latest readers
// must not see it) for the graveyard, where snapshot readers find it until
// prune reclaims it. The end stamp finalizes at commit.
func (st *rowStore) bury(r *Row, txn *Session) rowChange {
	st.unlink(r)
	st.graveyard = append(st.graveyard, r)
	r.end = provisionalVersion
	if txn != nil {
		r.txn = txn
	}
	return rowChange{tbl: st.table, kind: effDelete, r: r}
}

// stamp commits c at version cv.
func (st *rowStore) stamp(c rowChange, cv uint64) {
	switch {
	case c.kind == effDelete:
		c.r.end, c.r.txn = cv, nil
	case c.kind == effInsert:
		c.r.begin, c.r.txn = cv, nil
	case c.pushed != nil:
		c.pushed.end = cv
		c.r.begin, c.r.txn = cv, nil
	}
}

// undo takes c back — after every later change to the table, so the keys it
// restores are free: an inserted row leaves, a rewritten row gets its image
// back and pops the chain node it pushed, a buried row returns to the heap.
func (st *rowStore) undo(c rowChange) {
	switch c.kind {
	case effInsert:
		st.unlink(c.r)
	case effUpdate:
		_ = st.reimage(c.r, c.old)
		if c.pushed != nil {
			c.r.prev, c.r.begin, c.r.txn = c.pushed.prev, c.pushed.begin, nil
			*c.pushed = rowVersion{}
		}
	case effDelete:
		c.r.end, c.r.txn = 0, nil
		_ = st.link(c.r)
		st.rows = append(st.rows, c.r)
		st.graveyard = without(st.graveyard, c.r)
		if c.r.prev != nil {
			st.chain(c.r)
		}
	}
}

// pruneChain truncates r's version chain at the first image dead to every
// reader at or above minActive — everything older is dead too (each older
// image's end bounds the next newer one's begin) — and returns how many went.
func pruneChain(r *Row, minActive uint64) int {
	at := &r.prev
	for c := r.prev; c != nil; c = c.prev {
		if c.end != 0 && c.end <= minActive {
			*at = nil
			return dropChain(c)
		}
		at = &c.prev
	}
	return 0
}

// dropChain zeroes the chain from c down and returns its length.
func dropChain(c *rowVersion) (n int) {
	for ; c != nil; n++ {
		next := c.prev
		*c = rowVersion{}
		c = next
	}
	return n
}

// prune reclaims what no reader at or above minActive can see: chain versions
// behind live and buried rows, and graveyard rows whose delete has committed.
// It visits the chained list and the graveyard, never the heap.
func (st *rowStore) prune(minActive uint64) (versions, rows int) {
	kept := st.chained[:0]
	for _, r := range st.chained {
		r.chained = false
		if r.end != 0 {
			continue // buried since: the graveyard's to prune
		}
		versions += pruneChain(r, minActive)
		if r.prev != nil {
			r.chained = true
			kept = append(kept, r)
		}
	}
	clear(st.chained[len(kept):])
	st.chained = kept

	buried := st.graveyard[:0]
	for _, r := range st.graveyard {
		// end is never 0 in the graveyard: committed deletes carry their
		// commit version, pending ones provisionalVersion (> minActive).
		if r.txn == nil && r.end <= minActive {
			rows++
			versions += dropChain(r.prev)
			*r = Row{}
			continue
		}
		versions += pruneChain(r, minActive)
		buried = append(buried, r)
	}
	clear(st.graveyard[len(buried):])
	st.graveyard = buried
	return versions, rows
}
