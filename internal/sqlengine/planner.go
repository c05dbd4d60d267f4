package sqlengine

import "strings"

// The planner builds a Plan (plan.go) for a SELECT in one of two modes.
//
// The cost-based mode pools WHERE and (inner) ON conjuncts, pushes each down
// to the earliest operator where all referenced tables are bound, picks
// access paths and a greedy join order, and chooses index-nested-loop vs
// hash vs nested-loop per join by estimated rows examined — the currency the
// server's virtual CPU model charges, so minimizing it maximizes simulated
// throughput.
//
// The naive mode reproduces the pre-planner executor exactly — first usable
// `col = const` WHERE conjunct picks the driving index, joins run in syntax
// order with per-join index lookups when available, and the whole WHERE
// applies after all joins — so the A-PLAN ablation's baseline arm and the
// engine's published figures stay byte-for-byte stable.
//
// Each mode is a costing pass (costAccess, costNaive) that decides the
// relational operators as steps, each with the conjuncts placed at it; one
// constructor (planBuilder.node) turns a decided step into its operator, for
// both modes and for the driving access of an UPDATE or DELETE (write.go).

// probePenalty charges an index-nested-loop probe the equivalent of two
// sequentially scanned rows: each probe is a random index access, while a
// hash build reads its input sequentially. This is what lets hash join win
// on unselective outers even when an inner index exists.
const probePenalty = 2.0

// Default selectivities when statistics cannot say better.
const (
	defaultRangeSel = 1.0 / 3
	defaultLikeSel  = 0.25
	defaultSel      = 1.0 / 3
)

// countParams returns the number of ? parameters in the statement.
func countParams(st Stmt) int {
	n := 0
	walkStmt(st, func(e Expr) {
		if _, ok := e.(*Param); ok {
			n++
		}
	})
	return n
}

// runtimeConst reports whether the expression evaluates to the same value
// for every row of one execution: no column references (parameters are fine,
// they are fixed per execution).
func runtimeConst(e Expr) bool {
	hasCol := false
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*ColRef); ok {
			hasCol = true
		}
	})
	return !hasCol
}

// usableEqIndex reports whether `col = v` on tbl can be answered by a point
// lookup (single-column PK or single-column secondary index — rowStore.probe's
// contract), returning the index display name and whether it is unique.
func usableEqIndex(tbl *Table, col int) (name string, unique, ok bool) {
	if len(tbl.pkCols) == 1 && tbl.pkCols[0] == col {
		return "PRIMARY", true, true
	}
	for _, ix := range tbl.indexes {
		if len(ix.Cols) == 1 && ix.Cols[0] == col {
			return ix.Name, ix.Unique, true
		}
	}
	return "", false, false
}

// planBuilder carries state while costing and materialising plans. The engine
// keeps one (Engine.planner) and every build and re-cost starts it afresh
// (begin) but keeps its scratch, so a costing pass that needs no more room
// than an earlier one allocates nothing.
type planBuilder struct {
	st     *SelectStmt
	tables []planTable // the scope slots costed over
	p      *Plan       // the plan being materialised (nil in a re-cost)

	// The costing pass's scratch. pool is the WHERE and ON conjuncts (whole
	// expressions in naive mode), each with the step it is placed at; steps
	// is the pass's result, one relational operator per entry in build order,
	// driving access first — what materialise builds and decided compares.
	pool    []pooledConjunct
	cands   []eqCandidate
	choices []accessChoice
	steps   []accessChoice
}

// begin readies the builder for st over tables, materialising into p.
func (b *planBuilder) begin(st *SelectStmt, tables []planTable, p *Plan) *planBuilder {
	b.st, b.tables, b.p = st, tables, p
	return b
}

func (b *planBuilder) newNode(kind opKind) *planNode {
	return b.add(&planNode{kind: kind, eqCol: -1})
}

// add appends n to the plan's nodes.
func (b *planBuilder) add(n *planNode) *planNode {
	b.p.nodes = append(b.p.nodes, n)
	return n
}

// buildPlan constructs a plan for st: table resolution, statistics refresh
// and cost estimation all read catalog state. A build is its mode's costing
// pass (costAccess or costNaive) and the materialising pass (materialise)
// back to back.
func (e *Engine) buildPlan(s *Session, st *SelectStmt, naive bool) (*Plan, error) {
	p := &Plan{
		db:      strings.ToLower(s.db),
		naive:   naive,
		epoch:   e.catalogEpoch,
		nparams: countParams(st),
	}

	// Resolve scope tables in syntax order — frame slots and column
	// resolution never depend on join order.
	refs := make([]TableRef, 0, 1+len(st.Joins))
	refs = append(refs, st.From)
	for _, j := range st.Joins {
		refs = append(refs, j.Table)
	}
	for _, r := range refs {
		_, tbl, err := s.resolveTable(r)
		if err != nil {
			return nil, err
		}
		p.tables = append(p.tables, planTable{
			display: r.refName(),
			lower:   strings.ToLower(r.refName()),
			tbl:     tbl,
		})
	}

	for i := range p.tables {
		pt := &p.tables[i]
		if !naive {
			// Cost mode plans against fresh statistics: refresh before
			// costing, so the generation recorded is the one costed under.
			e.refreshStats(pt.tbl)
		}
		pt.gen = pt.tbl.statsGen
	}

	b := e.planner.begin(st, p.tables, p)
	if naive {
		b.costNaive()
	} else {
		b.costAccess()
	}
	b.materialise()
	b.buildTail()
	p.sumCost()
	return p, p.resolve(st)
}

// recost brings a cost-based plan whose statistics moved up to date in
// place. It refreshes the plan's tables as a build would, runs the costing
// pass over them and, when the pass decides what the plan already does —
// every access path, the join order and algorithms, hence every filter's
// placement — writes the pass's estimates and the tables' generations into p
// and reports true: p prints what a build now would, and keeps its run
// scratch. A plan over a catalog that has changed since, or whose decisions
// the new statistics move, is left as it is (false) for the caller to
// rebuild.
func (e *Engine) recost(p *Plan, sel *SelectStmt) bool {
	if p.epoch != e.catalogEpoch {
		return false
	}
	for _, pt := range p.tables {
		e.refreshStats(pt.tbl)
	}
	b := e.planner.begin(sel, p.tables, nil)
	b.costAccess()
	if !b.decided(p) {
		return false
	}
	for i := range p.tables {
		p.tables[i].gen = p.tables[i].tbl.statsGen
	}
	for i, c := range b.steps {
		p.nodes[i].estCost, p.nodes[i].estRows = c.cost, c.outRows
	}
	b.costTail(p.tail, p.root.estRows)
	p.sumCost()
	return true
}

// ---------------------------------------------------------------------------
// Estimation helpers

// rowsOf returns the live row count as a float with a floor of 0.
func rowsOf(t *Table) float64 { return float64(t.NumRows()) }

// eqBucketEst estimates rows returned by an index point lookup.
func eqBucketEst(t *Table, col int, unique bool) float64 {
	if unique {
		return 1
	}
	n := t.NumRows()
	ndv := t.stats.ndvOf(col, n)
	if ndv < 1 {
		ndv = 1
	}
	est := float64(n) / float64(ndv)
	if est < 1 && n > 0 {
		est = 1
	}
	return est
}

// colOf resolves expr to a column position on slot `slot`, considering both
// qualified refs naming the slot and bare refs uniquely owned by it.
func (b *planBuilder) colOf(expr Expr, slot int) (int, bool) {
	c, ok := expr.(*ColRef)
	if !ok {
		return 0, false
	}
	owner, pos, err := resolveCol(b.tables, c)
	return pos, err == nil && owner == slot
}

// refMaskOf computes which scope slots an expression references. A reference
// that does not resolve contributes nothing: the resolver rejects the plan
// once it is built.
func (b *planBuilder) refMaskOf(expr Expr) (mask uint64) {
	walkExpr(expr, func(x Expr) {
		if c, isCol := x.(*ColRef); isCol {
			if slot, _, err := resolveCol(b.tables, c); err == nil {
				mask |= 1 << uint(slot)
			}
		}
	})
	return mask
}

// selOf estimates the fraction of rows a single-table conjunct keeps. slot
// is the table the conjunct applies to.
func (b *planBuilder) selOf(c Expr, slot int) float64 {
	t := b.tables[slot].tbl
	ts := &t.stats
	switch x := c.(type) {
	case *Binary:
		col, colOK := b.colOf(x.L, slot)
		other := x.R
		op := x.Op
		if !colOK {
			col, colOK = b.colOf(x.R, slot)
			other = x.L
			op = flipCmp(op)
		}
		if !colOK || !runtimeConst(other) {
			return defaultSel
		}
		switch op {
		case "=":
			return 1 / float64(ts.ndvOf(col, t.NumRows()))
		case "!=":
			return 1 - 1/float64(ts.ndvOf(col, t.NumRows()))
		case "<", "<=", ">", ">=":
			if lit, isLit := other.(*Literal); isLit && col < len(ts.cols) {
				return ts.cols[col].rangeFraction(op, lit.V)
			}
			return defaultRangeSel
		}
		return defaultSel
	case *InExpr:
		col, colOK := b.colOf(x.X, slot)
		if !colOK {
			return defaultSel
		}
		return min(1, float64(len(x.List))/float64(ts.ndvOf(col, t.NumRows())))
	case *LikeExpr:
		return defaultLikeSel
	}
	return defaultSel
}

// flipCmp mirrors a comparison operator for the swapped-operand orientation.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// kindClass groups value kinds by hash-key compatibility: within one class,
// Value.hashKey equality coincides with Compare equality, so a hash join
// finds exactly the matches a nested loop would.
type kindClass uint8

const (
	classUnknown kindClass = iota
	classNumeric
	classString
)

func classOfKind(k Kind) kindClass {
	switch k {
	case KindInt, KindFloat, KindBool, KindTime:
		return classNumeric
	case KindString:
		return classString
	}
	return classUnknown
}

// classOfExpr statically classifies an expression's value kind where
// possible: column refs by schema, literals by value.
func (b *planBuilder) classOfExpr(e Expr) kindClass {
	switch x := e.(type) {
	case *ColRef:
		for slot := range b.tables {
			if pos, ok := b.colOf(x, slot); ok {
				return classOfKind(b.tables[slot].tbl.Columns[pos].Type)
			}
		}
		return classUnknown
	case *Literal:
		return classOfKind(x.V.Kind())
	}
	return classUnknown
}

// ---------------------------------------------------------------------------
// Naive mode — parity with the pre-planner executor

// costNaive is the costing pass of a naive plan, the legacy execSelect
// shape: the rule-based driving access (drivingRule), syntax-order joins
// with per-join index lookups, the whole WHERE evaluated after all joins.
// Each ON and the WHERE go in the pool whole — a single filter reproduces
// the legacy executor's evaluation (including three-valued AND order)
// exactly.
func (b *planBuilder) costNaive() {
	b.pool, b.steps = b.pool[:0], b.steps[:0]
	drive := drivingRule(b.tables[0], b.st.Where)
	b.steps = append(b.steps, drive)
	outEst := drive.outRows
	for ji, j := range b.st.Joins {
		slot := ji + 1
		pt := b.tables[slot]
		c := accessChoice{slot: slot, kind: opNLJoin, eqCol: -1, cost: outEst * rowsOf(pt.tbl)}
		if eqCol, eqExpr := joinEqPattern(j.On, pt.lower, pt.tbl); eqCol >= 0 {
			if name, unique, usable := usableEqIndex(pt.tbl, eqCol); usable {
				c = accessChoice{slot: slot, kind: opINLJoin, eqCol: eqCol, eqExpr: eqExpr, idxName: name,
					cost: outEst * eqBucketEst(pt.tbl, eqCol, unique)}
			}
		}
		mpo := rowsOf(pt.tbl)
		for _, on := range Conjuncts(j.On) {
			mpo *= joinFilterSel(b, on, slot)
		}
		c.outRows = outEst * mpo
		b.pool = append(b.pool, pooledConjunct{expr: j.On, at: len(b.steps)})
		b.steps = append(b.steps, c)
		outEst = c.outRows
	}
	if b.st.Where != nil {
		sel := 1.0
		for _, w := range Conjuncts(b.st.Where) {
			sel *= b.whereSel(w)
		}
		b.pool = append(b.pool, pooledConjunct{expr: b.st.Where, at: len(b.steps)})
		b.steps = append(b.steps, accessChoice{kind: opFilter, eqCol: -1, outRows: outEst * sel})
	}
}

// drivingRule decides by rule how a single table is entered given a WHERE
// clause — the naive mode's driving access and UPDATE's and DELETE's: the
// first conjunct that is `col = expr` (either way round) over a column with a
// point-lookup index, expr reading no column, picks that index; otherwise the
// heap is scanned.
func drivingRule(pt planTable, where Expr) accessChoice {
	tbl := pt.tbl
	c := accessChoice{kind: opScan, eqCol: -1, cost: rowsOf(tbl)}
search:
	for _, conj := range Conjuncts(where) {
		bin, ok := conj.(*Binary)
		if !ok || bin.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
			col, ok := try[0].(*ColRef)
			if !ok || (col.Table != "" && !strings.EqualFold(col.Table, pt.lower)) || !runtimeConst(try[1]) {
				continue
			}
			pos, ok := tbl.ColPos(col.Name)
			if !ok {
				continue
			}
			if name, unique, usable := usableEqIndex(tbl, pos); usable {
				c = accessChoice{kind: opIndexScan, eqCol: pos, eqExpr: try[1], idxName: name,
					cost: eqBucketEst(tbl, pos, unique)}
				break search
			}
		}
	}
	c.outRows = c.cost
	return c
}

// whereSel estimates a WHERE conjunct's selectivity: single-table conjuncts
// use column statistics, everything else the default.
func (b *planBuilder) whereSel(c Expr) float64 {
	mask := b.refMaskOf(c)
	if mask == 0 || mask&(mask-1) != 0 {
		return defaultSel
	}
	slot := 0
	for mask>>uint(slot+1) != 0 {
		slot++
	}
	return b.selOf(c, slot)
}

// joinFilterSel estimates one ON conjunct's match fraction against the join
// table: equality against the join column contributes 1/NDV, the rest use
// single-table or default selectivities.
func joinFilterSel(b *planBuilder, c Expr, slot int) float64 {
	if bin, ok := c.(*Binary); ok && bin.Op == "=" {
		for _, try := range [2]Expr{bin.L, bin.R} {
			if col, ok := b.colOf(try, slot); ok {
				t := b.tables[slot].tbl
				return 1 / float64(t.stats.ndvOf(col, t.NumRows()))
			}
		}
	}
	return b.whereSel(c)
}

// ---------------------------------------------------------------------------
// Cost mode

// pooledConjunct tracks one predicate through placement.
type pooledConjunct struct {
	expr Expr
	mask uint64
	at   int // the step whose operator evaluates it; -1 until placed
}

// addConjuncts pools e's top-level conjuncts (Conjuncts' flattening), each
// with its reference mask and unplaced.
func (b *planBuilder) addConjuncts(e Expr) {
	if x, ok := e.(*Binary); ok && x.Op == "AND" {
		b.addConjuncts(x.L)
		b.addConjuncts(x.R)
		return
	}
	if e != nil {
		b.pool = append(b.pool, pooledConjunct{expr: e, mask: b.refMaskOf(e), at: -1})
	}
}

// place places at step every unplaced conjunct of pool whose references are
// covered by bound.
func place(pool []pooledConjunct, bound uint64, step int) {
	for i := range pool {
		if pc := &pool[i]; pc.at < 0 && pc.mask&^bound == 0 {
			pc.at = step
		}
	}
}

// filtersAt returns the conjuncts placed at step. Order follows the pool
// (WHERE first, then ON clauses in syntax order) for deterministic plans.
func (b *planBuilder) filtersAt(step int) []Expr {
	var out []Expr
	for _, pc := range b.pool {
		if pc.at == step {
			out = append(out, pc.expr)
		}
	}
	return out
}

// eqCandidate is a potential equality lookup: slot.col = expr(bound).
type eqCandidate struct {
	pc     *pooledConjunct
	col    int
	expr   Expr // outer-side key expression
	rlSafe bool // hash-key classes compatible
}

// eqCandidatesFor finds equality conjuncts usable to join `slot` to the
// bound set (driving access passes bound = 0 and runtime-const other sides),
// in the builder's scratch: valid until the next call.
func (b *planBuilder) eqCandidatesFor(pool []pooledConjunct, slot int, bound uint64) []eqCandidate {
	out := b.cands[:0]
	slotBit := uint64(1) << uint(slot)
	for i := range pool {
		pc := &pool[i]
		if pc.at >= 0 {
			continue
		}
		bin, isBin := pc.expr.(*Binary)
		if !isBin || bin.Op != "=" {
			continue
		}
		for _, try := range [2][2]Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
			col, ok := b.colOf(try[0], slot)
			if !ok {
				continue
			}
			otherMask := b.refMaskOf(try[1])
			if otherMask&slotBit != 0 || otherMask&^bound != 0 {
				continue
			}
			innerClass := classOfKind(b.tables[slot].tbl.Columns[col].Type)
			outerClass := b.classOfExpr(try[1])
			out = append(out, eqCandidate{
				pc:     pc,
				col:    col,
				expr:   try[1],
				rlSafe: innerClass != classUnknown && innerClass == outerClass,
			})
			break
		}
	}
	b.cands = out
	return out
}

// accessChoice is one scored way to bring a table into the pipeline — and,
// chosen, one step of the costing pass, whose residual filter is a step of
// kind opFilter that reads no table (slot 0, eqCol -1, cost 0).
type accessChoice struct {
	slot    int
	kind    opKind
	eqCol   int
	eqExpr  Expr
	idxName string
	eqPC    *pooledConjunct // lookup conjunct (excluded from selectivity product)
	cost    float64         // estimated rows examined by this step
	outRows float64         // estimated pipeline output after this step
}

// drivingChoice scores the best access for slot as the driving table.
func (b *planBuilder) drivingChoice(pool []pooledConjunct, slot int) accessChoice {
	t := b.tables[slot].tbl
	best := accessChoice{slot: slot, kind: opScan, eqCol: -1, cost: rowsOf(t)}
	for _, cand := range b.eqCandidatesFor(pool, slot, 0) {
		name, unique, usable := usableEqIndex(t, cand.col)
		if !usable {
			continue
		}
		cost := eqBucketEst(t, cand.col, unique)
		if cost < best.cost {
			best = accessChoice{slot: slot, kind: opIndexScan, eqCol: cand.col,
				eqExpr: cand.expr, idxName: name, eqPC: cand.pc, cost: cost}
		}
	}
	// Output estimate: examined rows filtered by the remaining single-table
	// conjuncts (the lookup conjunct's selectivity is the bucket itself).
	out := best.cost
	slotBit := uint64(1) << uint(slot)
	for i := range pool {
		pc := &pool[i]
		if pc.at >= 0 || pc.mask&^slotBit != 0 || pc == best.eqPC {
			continue
		}
		out *= b.selOf(pc.expr, slot)
	}
	best.outRows = out
	return best
}

// joinChoices scores every way to join `slot` onto the bound pipeline, in the
// builder's scratch: valid until the next call.
func (b *planBuilder) joinChoices(pool []pooledConjunct, slot int, bound uint64, outEst float64) []accessChoice {
	t := b.tables[slot].tbl
	rows := rowsOf(t)
	newBound := bound | 1<<uint(slot)

	// Expected matches per outer row across all conjuncts that become
	// evaluable here — the output cardinality, independent of algorithm.
	mpoAll := rows
	cands := b.eqCandidatesFor(pool, slot, bound)
	for i := range pool {
		pc := &pool[i]
		if pc.at >= 0 || pc.mask&^newBound != 0 || pc.mask&(1<<uint(slot)) == 0 {
			continue
		}
		isEq := false
		for _, c := range cands {
			if c.pc == pc {
				isEq = true
				break
			}
		}
		if isEq {
			mpoAll *= 1 / float64(t.stats.ndvOf(eqColOf(cands, pc), t.NumRows()))
		} else if pc.mask == 1<<uint(slot) {
			mpoAll *= b.selOf(pc.expr, slot)
		} else {
			mpoAll *= defaultSel
		}
	}
	out := outEst * mpoAll

	choices := b.choices[:0]
	for _, cand := range cands {
		bucket := rows / float64(t.stats.ndvOf(cand.col, t.NumRows()))
		if bucket < 1 {
			bucket = 1
		}
		if name, unique, usable := usableEqIndex(t, cand.col); usable {
			bk := bucket
			if unique {
				bk = 1
			}
			choices = append(choices, accessChoice{
				slot: slot, kind: opINLJoin, eqCol: cand.col, eqExpr: cand.expr,
				idxName: name, eqPC: cand.pc,
				cost:    outEst * (probePenalty + bk),
				outRows: out,
			})
		}
		if cand.rlSafe {
			choices = append(choices, accessChoice{
				slot: slot, kind: opHashJoin, eqCol: cand.col, eqExpr: cand.expr,
				eqPC: cand.pc,
				cost: rows + outEst*bucket, outRows: out,
			})
		}
	}
	choices = append(choices, accessChoice{
		slot: slot, kind: opNLJoin, eqCol: -1,
		cost: outEst * rows, outRows: out,
	})
	b.choices = choices
	return choices
}

// eqColOf finds the inner column of the candidate backed by pc.
func eqColOf(cands []eqCandidate, pc *pooledConjunct) int {
	for _, c := range cands {
		if c.pc == pc {
			return c.col
		}
	}
	return -1
}

// costAccess is the costing pass of a cost-based plan: it pools the WHERE and
// ON conjuncts, chooses every slot's access, the greedy join order and each
// join's algorithm, places every conjunct and estimates every relational
// operator, into b.pool and b.steps. It reads the scope's statistics and
// writes nothing but the builder's scratch.
func (b *planBuilder) costAccess() {
	b.pool, b.steps = b.pool[:0], b.steps[:0]
	b.addConjuncts(b.st.Where)
	for _, j := range b.st.Joins {
		b.addConjuncts(j.On)
	}
	pool := b.pool

	nt := len(b.tables)
	var bound uint64
	outEst := 0.0
	for step := 0; step < nt; step++ {
		var best accessChoice
		haveBest := false
		if step == 0 {
			for slot := 0; slot < nt; slot++ {
				c := b.drivingChoice(pool, slot)
				if !haveBest || c.cost < best.cost {
					best, haveBest = c, true
				}
			}
		} else {
			for slot := 0; slot < nt; slot++ {
				if bound&(1<<uint(slot)) != 0 {
					continue
				}
				for _, c := range b.joinChoices(pool, slot, bound, outEst) {
					if !haveBest || c.cost < best.cost {
						best, haveBest = c, true
					}
				}
			}
		}
		bound |= 1 << uint(best.slot)
		// The lookup conjunct is placed here too, as a recheck (exact under
		// MVCC scan degradation); it just doesn't count twice in the
		// estimates above.
		place(pool, bound, step)
		b.steps = append(b.steps, best)
		outEst = best.outRows
	}
	// Every conjunct's references are bound by now, so each was placed.
}

// materialise builds the relational operators the costing pass decided, in
// its order.
func (b *planBuilder) materialise() {
	var chain *planNode
	for i := range b.steps {
		n := b.add(b.node(i))
		n.input = chain
		chain = n
	}
	b.p.root = chain
}

// node builds the operator of decided step i: its access, the conjuncts
// placed at it, its estimates and its rendered detail.
func (b *planBuilder) node(i int) *planNode {
	c := &b.steps[i]
	n := &planNode{kind: c.kind, eqCol: c.eqCol, eqExpr: c.eqExpr, idxName: c.idxName,
		filters: b.filtersAt(i), estCost: c.cost, estRows: c.outRows}
	if c.kind == opFilter {
		n.detail = strings.TrimPrefix(renderFilters(n.filters), " filter ")
		return n
	}
	pt := b.tables[c.slot]
	n.slot, n.tbl = c.slot, pt.tbl
	if i == 0 {
		n.detail = accessDetail(pt.display, n)
	} else {
		n.detail = joinDetail(pt.display, n)
	}
	return n
}

// decided reports whether p's relational operators are the ones the costing
// pass just decided, step for step: kind, table, index and lookup key. Filter
// placement follows from those — in syntax order it is fixed, in a reordered
// plan a conjunct goes to the first step that binds its tables — so equal
// steps place every conjunct where p has it.
func (b *planBuilder) decided(p *Plan) bool {
	if len(p.nodes) != len(b.steps)+len(p.tail) {
		return false
	}
	for i, c := range b.steps {
		n := p.nodes[i]
		if n.kind != c.kind || n.slot != c.slot || n.eqCol != c.eqCol || n.idxName != c.idxName || n.eqExpr != c.eqExpr {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Tail (projection / aggregation / order / limit)

// buildTail appends the presentation operators above the relational root,
// outermost first, and estimates them (costTail).
func (b *planBuilder) buildTail() {
	st, p := b.st, b.p
	aggregated := st.aggregated()

	var tail []*planNode // built innermost-first, reversed at the end

	if aggregated {
		agg := b.newNode(opHashAgg)
		var d strings.Builder
		if len(st.GroupBy) > 0 {
			d.WriteString("group_by=(")
			d.WriteString(exprList(st.GroupBy))
			d.WriteByte(')')
		} else {
			d.WriteString("global")
		}
		if st.Having != nil {
			d.WriteString(" having (")
			d.WriteString(st.Having.String())
			d.WriteByte(')')
		}
		agg.detail = d.String()
		tail = append(tail, agg)
	} else {
		proj := b.newNode(opProject)
		proj.detail = projectDetail(st)
		tail = append(tail, proj)
	}

	if len(st.OrderBy) > 0 {
		if bound, ok := staticTopNBound(st); ok && !aggregated {
			top := b.newNode(opTopN)
			top.detail = orderDetail(st) + " limit " + estInt(float64(bound))
			tail = append(tail, top)
		} else {
			srt := b.newNode(opSort)
			srt.detail = orderDetail(st)
			tail = append(tail, srt)
		}
	}

	if st.Distinct {
		tail = append(tail, b.newNode(opDistinct))
	}

	if st.Limit != nil || st.Offset != nil {
		lim := b.newNode(opLimit)
		var d strings.Builder
		if st.Limit != nil {
			d.WriteString(st.Limit.String())
		} else {
			d.WriteString("all")
		}
		if st.Offset != nil {
			d.WriteString(" offset ")
			d.WriteString(st.Offset.String())
		}
		lim.detail = d.String()
		tail = append(tail, lim)
	}

	// Reverse: p.tail is outermost-first.
	p.tail = make([]*planNode, 0, len(tail))
	for i := len(tail) - 1; i >= 0; i-- {
		p.tail = append(p.tail, tail[i])
	}
	outEst := 1.0
	if p.root != nil {
		outEst = p.root.estRows
	}
	b.costTail(p.tail, outEst)
}

// costTail estimates the presentation operators of tail (outermost first)
// over a pipeline estimated to yield outEst rows, innermost first: an
// aggregate yields its groups, a bounded sort and a literal LIMIT cap the
// rows, the rest pass them on.
func (b *planBuilder) costTail(tail []*planNode, outEst float64) {
	st := b.st
	for i := len(tail) - 1; i >= 0; i-- {
		n := tail[i]
		switch n.kind {
		case opHashAgg:
			if len(st.GroupBy) == 0 {
				outEst = 1
			} else {
				outEst = estGroups(b, outEst)
			}
		case opTopN:
			if bound, _ := staticTopNBound(st); float64(bound) < outEst {
				outEst = float64(bound)
			}
		case opLimit:
			if lv, isLit := st.Limit.(*Literal); isLit {
				if f := float64(lv.V.Int()); f < outEst {
					outEst = f
				}
			}
		}
		n.estRows = outEst
	}
}

// staticTopNBound reports the plan-time bound of a topn node: ORDER BY with
// literal LIMIT/OFFSET, no DISTINCT (which dedups before the limit). The tail
// bounds its sort whenever the limit is known at run time, parameters
// included, so topn versus sort + limit is only the label Plan.Explain prints
// — a SELECT with an alias has always printed the latter, and still does.
func staticTopNBound(st *SelectStmt) (int, bool) {
	if len(st.OrderBy) == 0 || st.Distinct || st.Limit == nil {
		return 0, false
	}
	for _, se := range st.Exprs {
		if se.Alias != "" {
			return 0, false
		}
	}
	lv, ok := st.Limit.(*Literal)
	if !ok {
		return 0, false
	}
	n := int(lv.V.Int())
	if st.Offset != nil {
		ov, ok := st.Offset.(*Literal)
		if !ok {
			return 0, false
		}
		n += int(ov.V.Int())
	}
	if n < 0 {
		return 0, false
	}
	return n, true
}

// estGroups estimates distinct groups: the product of group-column NDVs when
// all keys are plain column refs, else a fixed fraction of the input.
func estGroups(b *planBuilder, outEst float64) float64 {
	prod := 1.0
	for _, g := range b.st.GroupBy {
		hit := false
		for slot := range b.tables {
			if col, ok := b.colOf(g, slot); ok {
				t := b.tables[slot].tbl
				prod *= float64(t.stats.ndvOf(col, t.NumRows()))
				hit = true
				break
			}
		}
		if !hit {
			prod *= 8 // opaque key expression: assume moderate fan-out
		}
	}
	if prod > outEst {
		prod = outEst
	}
	if prod < 1 {
		prod = 1
	}
	return prod
}

// ---------------------------------------------------------------------------
// Detail rendering

func accessDetail(display string, n *planNode) string {
	var b strings.Builder
	b.WriteString(display)
	if n.kind == opIndexScan {
		b.WriteString(" via ")
		b.WriteString(n.idxName)
		b.WriteString(" on (")
		b.WriteString(n.tbl.Columns[n.eqCol].Name)
		b.WriteString(" = ")
		b.WriteString(n.eqExpr.String())
		b.WriteByte(')')
	}
	b.WriteString(renderFilters(n.filters))
	return b.String()
}

func joinDetail(display string, n *planNode) string {
	var b strings.Builder
	b.WriteString(display)
	if n.eqCol >= 0 && n.eqExpr != nil {
		if n.idxName != "" {
			b.WriteString(" via ")
			b.WriteString(n.idxName)
		}
		b.WriteString(" on (")
		b.WriteString(n.tbl.Columns[n.eqCol].Name)
		b.WriteString(" = ")
		b.WriteString(n.eqExpr.String())
		b.WriteByte(')')
	}
	b.WriteString(renderFilters(n.filters))
	return b.String()
}

func projectDetail(st *SelectStmt) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, se := range st.Exprs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(se.String())
	}
	b.WriteByte(')')
	return b.String()
}

func orderDetail(st *SelectStmt) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, o := range st.OrderBy {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(o.String())
	}
	b.WriteByte(')')
	return b.String()
}
