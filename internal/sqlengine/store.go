package sqlengine

import (
	"fmt"
	"sync"
)

// This file is the row store (DESIGN.md §12): the only code that reads or
// writes a table's row storage — heap, primary key, index buckets, version
// chains, graveyard. The rest of the package goes through rowStore's methods,
// and cloudrepl-lint's mvccalias holds every other file to that.
//
// Rows, row images, chain nodes and index postings are bump-allocated from
// per-table slabs: chunks that grow geometrically to slabMax slots and never
// move, so a *Row is stable for the row's life. A chunk lives while any row,
// image or posting in it is reachable; an image is immutable once published; a
// row, image or chain slot is never reused (an undone insert wastes its own);
// prune and undo zero the Row and rowVersion headers they free and never an
// image slot — a published image may be shared with every store restored from
// a capture of this one (storeImage). A posting is the one slot that is
// reused: an index entry removed goes on the store's free list, and the next
// one entered takes it, so maintaining an index allocates nothing once the
// slab is warm.
//
// A restored store shares more than images until it is first written: its heap
// and index maps are the image's read-only view, built once beside the index
// templates, so a table nothing writes costs a restore nothing per row. A write
// owns its table before it scans (own copies the view's row headers and clones
// the templates), so no Row of a view is ever a write's target, and every
// mutator panics on a store that still shares.

const slabMin, slabMax = 16, 1024 // slots in a slab's first and largest chunk

// slab bump-allocates runs of T's from chunks that never move. A slot is
// unit T's (one when unit is 0); a slab's first chunk has slabMin slots and
// each next one twice as many, up to slabMax. A take that does not fit in the
// newest chunk's tail opens the next chunk, made large enough for it, and the
// tail is never handed out: the row store takes one slot at a time (a row
// image is one slot of ncols Values) and so wastes none, while a plan's result
// storage (carve) takes runs of any size up to an eighth of a full chunk. No
// chunk is rewound or reused, so a run is its taker's for as long as the taker
// holds it, and the three-index slice take returns keeps the taker's appends
// out of its neighbours.
type slab[T any] struct {
	free  []T // unallocated tail of the newest chunk
	slots int // size of the newest chunk
	unit  int // T's in a slot; 0 is 1
}

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.slots = min(max(2*s.slots, slabMin), slabMax)
		s.free = make([]T, max(s.slots*max(s.unit, 1), n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// slabMark is where a slab stands: its newest chunk's size, how much of that
// chunk is unallocated and its slot's size. A slab resumed from a mark
// allocates its next chunk when, and as large as, the slab the mark was taken
// from will.
type slabMark struct{ slots, free, unit int }

func (s *slab[T]) mark() slabMark { return slabMark{s.slots, len(s.free), s.unit} }

func resume[T any](m slabMark) slab[T] {
	return slab[T]{free: make([]T, m.free), slots: m.slots, unit: m.unit}
}

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
// key renders, once per use, into hashKey.s under kind 'c'. Its entries are
// postings its store hands it (rowStore.post).
type Index struct {
	Name    string
	Cols    []int // column positions
	Unique  bool
	buckets keyMap[bucket]
}

// posting is one row's entry in an index bucket: a node of the bucket's
// circular list.
type posting struct {
	r    *Row
	next *posting
}

// bucket is the rows under one key, in insertion order: n postings in a
// circular list whose tail's next is the head — so the map entry stays small,
// an append is O(1) and a remove keeps the others' order.
type bucket struct {
	tail *posting
	n    int32
}

// postings is where a store's index entries come from: its slab, and the
// postings remove gave back, linked through next and taken first.
type postings struct {
	slab slab[posting]
	free *posting
}

func (ps *postings) take(r *Row) *posting {
	p := ps.free
	if p != nil {
		ps.free = p.next
	} else {
		p = &ps.slab.take(1)[0]
	}
	p.r = r
	return p
}

func (ps *postings) give(p *posting) {
	*p = posting{next: ps.free}
	ps.free = p
}

// mark is where ps stands as a slab: a posting given back is one more slot
// add takes before the slab's next chunk.
func (ps *postings) mark() slabMark {
	m := ps.slab.mark()
	for p := ps.free; p != nil; p = p.next {
		m.free++
	}
	return m
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

// add enters r at the end of its key's bucket, in a posting taken from ps;
// false is a unique violation.
func (ix *Index) add(r *Row, ps *postings) bool {
	k := ix.key(r.vals)
	b, _ := ix.buckets.get(k)
	if b.n > 0 && ix.Unique {
		return false
	}
	p := ps.take(r)
	if b.tail == nil {
		p.next = p
	} else {
		p.next, b.tail.next = b.tail.next, p
	}
	ix.buckets.put(k, bucket{tail: p, n: b.n + 1})
	return true
}

// remove takes r out of its key's bucket, keeping the others' order, and gives
// its posting back to ps.
func (ix *Index) remove(r *Row, ps *postings) {
	k := ix.key(r.vals)
	b, _ := ix.buckets.get(k)
	prev := b.tail
	for range b.n {
		p := prev.next
		if p.r != r {
			prev = p
			continue
		}
		if b.n == 1 {
			ix.buckets.del(k)
		} else {
			prev.next = p.next
			if p == b.tail {
				b.tail = prev
			}
			ix.buckets.put(k, bucket{tail: b.tail, n: b.n - 1})
		}
		ps.give(p)
		return
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

// rowCursor walks the candidates of one scan or probe: latest rows (the heap,
// borrowed, or a bucket's n postings from tail.next) or resolved images (its
// own buffer, reused).
type rowCursor struct {
	rows   []*Row
	images [][]Value
	tail   *posting
	n      int
	at     *posting // the posting next returned last
	i      int
}

func (c *rowCursor) len() int { return len(c.rows) + len(c.images) + c.n }

func (c *rowCursor) rewind() { c.i, c.at = 0, c.tail }

// next returns the following candidate's image, false at the end.
func (c *rowCursor) next() ([]Value, bool) {
	switch {
	case c.i < len(c.rows):
		c.i++
		return c.rows[c.i-1].vals, true
	case c.i < len(c.images):
		c.i++
		return c.images[c.i-1], true
	case c.i < c.n:
		c.i++
		c.at = c.at.next
		return c.at.r.vals, true
	}
	return nil, false
}

// row returns the row whose image next just returned (latest rows only).
func (c *rowCursor) row() *Row {
	if c.n > 0 {
		return c.at.r
	}
	return c.rows[c.i-1]
}

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
	// src is the image the store was restored from while nothing has written
	// to it since — and whose view its heap and index maps then are. own and
	// truncate clear it.
	src *storeImage

	rowSlab slab[Row]
	imgSlab slab[Value]
	verSlab slab[rowVersion]
	post    postings // every index's entries
}

// init makes the zero store st an empty store of t's rows, entered under
// keyed: t's primary key first when it has one, then its secondary indexes,
// each with no bucket yet.
func (st *rowStore) init(t *Table, keyed []*Index) {
	st.table, st.ncols, st.keyed = t, len(t.Columns), keyed
	st.imgSlab.unit = st.ncols
	if len(t.pkCols) > 0 {
		st.pk = keyed[0]
	}
}

// truncate drops every row. TRUNCATE is DDL, not a versioned write: the
// graveyard and version chains go with the heap, so snapshot readers lose
// pre-truncate images (documented MVCC scope, DESIGN.md §12). A store that
// shares its image owns an empty one after it, nothing copied.
func (st *rowStore) truncate() {
	st.rows, st.graveyard, st.chained, st.src = nil, nil, nil, nil
	st.rowSlab, st.imgSlab, st.verSlab, st.post = slab[Row]{}, slab[Value]{unit: st.ncols}, slab[rowVersion]{}, postings{}
	for _, ix := range st.keyed {
		ix.buckets = keyMap[bucket]{}
	}
}

// live returns the number of rows in the heap.
func (st *rowStore) live() int { return len(st.rows) }

// mustOwn panics when st still shares its image's view: its caller would write
// the image, and every store restored from it. Every mutator calls it but
// truncate, which drops the sharing, and prune, which visits only what a
// shared store has none of.
func (st *rowStore) mustOwn() {
	if st.src != nil {
		panic("sqlengine: table " + st.table.Name + " written while it shares its restored image")
	}
}

// image returns a fresh row image holding a copy of from, all NULL past it.
func (st *rowStore) image(from []Value) []Value {
	st.mustOwn()
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
// newest is the highest begin among them. An image is immutable once captured
// but for its index templates and its view, which its first restore builds,
// once, for every restore after it — on whatever goroutine each runs. The view
// is a store's heap and index maps over rows itself: what every restored store
// reads until it is first written, and nothing ever writes.
type storeImage struct {
	rows   []Row
	newest uint64
	standing

	once    sync.Once
	indexes []indexTemplate  // one per index of the store, in keyed order
	heap    []*Row           // the view's heap: rows, in order
	view    []keyMap[bucket] // the view's index maps, one per template
	err     error            // the unique violation entering rows would meet
}

// standing is where a store stands in its heap's backing array and its four
// slabs: an image keeps its source's, for own to leave the owning store
// standing there too, so what it allocates next, and when, is what the source
// would.
type standing struct {
	heapCap                             int
	rowSlab, imgSlab, verSlab, postSlab slabMark
}

// where returns where st stands — for a store that shares, where own will
// leave it.
func (st *rowStore) where() standing {
	if img := st.src; img != nil {
		s := img.standing
		s.heapCap = max(len(img.rows), s.heapCap)
		return s
	}
	return standing{cap(st.rows), st.rowSlab.mark(), st.imgSlab.mark(), st.verSlab.mark(), st.post.mark()}
}

// indexTemplate is one index over an image's rows, numbered in image order:
// each key's span and, in ords, every row's ordinal, bucket after bucket.
type indexTemplate struct {
	keys keyMap[span]
	ords []int32
}

// span is one key's rows in an indexTemplate: ords[off:off+n], in bucket order.
type span struct{ off, n int32 }

// capture returns the store as v's reader sees it. A store restored and not
// written since is its image to any reader that sees every row of it, so it
// captures as that image, index templates included.
func (st *rowStore) capture(v readView) *storeImage {
	if st.src != nil && v.at >= st.src.newest {
		return st.src
	}
	img := &storeImage{rows: make([]Row, 0, len(st.rows)), standing: st.where()}
	for _, rows := range [2][]*Row{st.rows, st.graveyard} {
		for _, r := range rows {
			if vals, begin := r.visibleTo(v); vals != nil {
				img.rows = append(img.rows, Row{vals: vals, begin: begin})
				img.newest = max(img.newest, begin)
			}
		}
	}
	return img
}

// restore fills an empty store from img: its heap and index maps are img's
// view, shared until own. The rows are in img's order in the heap and in every
// bucket, no value coerced (the images come from a table of these columns).
// History is not carried: every row is one committed image. A unique violation
// — link's, entering the rows in img's order — leaves the store empty.
func (st *rowStore) restore(img *storeImage) error {
	img.once.Do(func() { img.build(st) })
	if img.err != nil {
		return img.err
	}
	st.rows, st.src = img.heap, img
	for i, ix := range st.keyed {
		ix.buckets = img.view[i]
	}
	return nil
}

// own replaces the view a store shares with storage of its own, built in bulk:
// the rows in one chunk, in the image's order in the heap and in every bucket,
// no row image copied. Each index is a clone of the image's template for it,
// and every index's postings are carved from one array. The store then stands
// where the image's source stood. A store that owns its storage already is
// left as it is.
func (st *rowStore) own() {
	img := st.src
	if img == nil {
		return
	}
	n := len(img.rows)
	chunk := make([]Row, n+img.rowSlab.free)
	copy(chunk, img.rows)
	st.rows = make([]*Row, n, max(n, img.heapCap))
	for i := range st.rows {
		st.rows[i] = &chunk[i]
	}
	post := make([]posting, n*len(st.keyed)+img.postSlab.free)
	for i, ix := range st.keyed {
		ix.buckets = img.indexes[i].clone(chunk, post[i*n:(i+1)*n])
	}
	st.rowSlab = slab[Row]{free: chunk[n:], slots: img.rowSlab.slots}
	st.post = postings{slab: slab[posting]{free: post[n*len(st.keyed):], slots: img.postSlab.slots}}
	st.imgSlab, st.verSlab = resume[Value](img.imgSlab), resume[rowVersion](img.verSlab)
	st.src = nil
}

// build makes img's index templates for st's indexes and its view over them,
// or finds the unique violation link would meet first: at the earliest row,
// under the earliest index in keyed order.
func (img *storeImage) build(st *rowStore) {
	keys := make([]hashKey, len(img.rows))
	rank := make([]int32, len(img.rows)) // a row's place in its bucket
	img.indexes = make([]indexTemplate, len(st.keyed))
	dupAt := len(img.rows)
	for x, ix := range st.keyed {
		t := &img.indexes[x]
		for o := range img.rows {
			k := ix.key(img.rows[o].vals)
			s, ok := t.keys.get(k)
			if ok && ix.Unique {
				if o < dupAt {
					dupAt, img.err = o, st.dupErr(ix)
				}
				break
			}
			keys[o], rank[o] = k, s.n
			s.n++
			t.keys.put(k, s)
		}
		if img.err != nil {
			continue
		}
		t.ords = make([]int32, len(keys))
		var off int32
		for o, k := range keys {
			s, _ := t.keys.get(k)
			if rank[o] == 0 { // the bucket's first row: lay out its run
				s.off, off = off, off+s.n
				t.keys.put(k, s)
			}
			t.ords[s.off+rank[o]] = int32(o)
		}
	}
	if img.err != nil {
		return
	}
	img.heap = make([]*Row, len(img.rows))
	for i := range img.rows {
		img.heap[i] = &img.rows[i]
	}
	n := len(img.rows)
	post := make([]posting, n*len(img.indexes))
	img.view = make([]keyMap[bucket], len(img.indexes))
	for i := range img.indexes {
		img.view[i] = img.indexes[i].clone(img.rows, post[i*n:(i+1)*n])
	}
}

// clone returns t's index over chunk, the restored rows in image order, its
// postings the slots of post, one per row.
func (t *indexTemplate) clone(chunk []Row, post []posting) keyMap[bucket] {
	for i, o := range t.ords {
		post[i].r = &chunk[o]
	}
	return cloneKeys(&t.keys, func(s span) bucket {
		run := post[s.off : s.off+s.n]
		for i := 1; i < len(run); i++ {
			run[i-1].next = &run[i]
		}
		tail := &run[len(run)-1]
		tail.next = &run[0]
		return bucket{tail: tail, n: s.n}
	})
}

// scan points c at every candidate v's reader must consider.
func (st *rowStore) scan(v readView, c *rowCursor) {
	c.i, c.rows, c.images, c.tail, c.n = 0, st.rows, c.images[:0], nil, 0
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
			c.i, c.rows, c.images, c.tail, c.n, c.at = 0, nil, c.images[:0], b.tail, int(b.n), b.tail
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
		if !ix.add(r, &st.post) {
			for _, done := range st.keyed[:i] {
				done.remove(r, &st.post)
			}
			return st.dupErr(ix)
		}
	}
	return nil
}

// unlink takes r out of the indexes and the heap.
func (st *rowStore) unlink(r *Row) {
	for _, ix := range st.keyed {
		ix.remove(r, &st.post)
	}
	st.rows = without(st.rows, r)
}

// insert adds a row with image img (coerced, and the store's from here on),
// visible from begin and marked as txn's when an open transaction writes it.
func (st *rowStore) insert(img []Value, begin uint64, txn *Session) (rowChange, error) {
	st.mustOwn()
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
	st.mustOwn()
	if st.pk != nil {
		if b, _ := st.pk.buckets.get(st.pk.key(img)); b.n > 0 && b.tail.r != r {
			return st.dupErr(st.pk)
		}
	}
	for _, ix := range st.keyed {
		ix.remove(r, &st.post)
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
	st.mustOwn()
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
	st.mustOwn()
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
	st.mustOwn()
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
// It visits the chained list and the graveyard, never the heap: a store that
// shares its image has neither, and a sweep leaves it sharing.
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
