package sqlengine

import (
	"math"
	"strconv"
	"strings"
)

// A Plan is the operator tree for one SELECT, built by the planner
// (planner.go), bound by the resolver (resolve.go) and executed by the source
// iterators (operators.go) and the tail (tail.go). A prepared Statement keeps
// its current plan per (database, planner mode), and two scopes bound a plan's
// life (current). Plans embed *Table pointers, so CREATE TABLE, DROP TABLE and
// snapshot Restore advance Engine.catalogEpoch and retire every plan. A
// cost-based plan also read statistics, of its own tables only: ANALYZE or
// TRUNCATE of a table moves that table's statsGen, and the plans over it are
// re-costed in place — rebuilt only when the new statistics change one of
// their decisions — while a plan over other tables lives on untouched.
//
// A plan fixes access paths, join order, join algorithms and every bound
// expression, never visibility: operators resolve rows through the session's
// MVCC read view at execution time, degrading index access to chain-resolving
// scans when the reader is behind the latest commit (operators.go). Cost
// estimates are in rows-examined units — the same unit the server's virtual
// CPU model charges per row — so the cheapest plan is the one that minimizes
// simulated CPU. The shape is immutable once built and the estimates change
// only when a re-cost writes them; rt is execution scratch reused by every
// run of the engine's one owner.
type Plan struct {
	db    string // lower-cased session database the plan was built for
	naive bool   // built by the naive (pre-planner parity) planner
	epoch uint64 // Engine.catalogEpoch at build time

	tables  []planTable // scope tables in syntax order (frame slot order)
	root    *planNode   // relational pipeline: filter → joins → driving scan
	tail    []*planNode // presentation nodes above root, outermost first
	nodes   []*planNode // every node by id (actual-count slots)
	nparams int         // number of ? parameters the statement requires

	// The bound tail (resolve.go). cols is shared by every ResultSet the plan
	// produces; consumers reslice it but never write.
	cols       []string
	proj       []*bexpr
	aggregated bool
	groupBy    []*bexpr
	aggs       []aggSpec
	having     *bexpr
	order      []orderKey
	distinct   bool
	limit      *bexpr
	offset     *bexpr
	joins      bool // the pipeline has a join: LIMIT must drain it

	rt runState

	totalCost float64 // summed estimated rows examined across the pipeline
}

// planTable is one scope slot: tables appear in syntax order so column
// resolution and SELECT * output are independent of join order.
type planTable struct {
	display string // ref name as written (alias or table name)
	lower   string // lower-cased ref name for scope binding
	tbl     *Table
	gen     uint64 // tbl.statsGen the plan was costed under
}

// opKind enumerates plan operators.
type opKind uint8

const (
	opScan      opKind = iota // full heap scan (or visible-image scan)
	opIndexScan               // eq bucket via single-column index or PK
	opNLJoin                  // nested-loop join, full inner per outer row
	opINLJoin                 // index-nested-loop join via inner index
	opHashJoin                // build inner hash table, probe outer rows
	opFilter                  // residual predicate over joined rows
	opHashAgg                 // grouped aggregation (+ HAVING)
	opProject                 // projection
	opSort                    // full ORDER BY sort
	opTopN                    // bounded in-flight sort (ORDER BY + LIMIT)
	opDistinct                // post-projection DISTINCT
	opLimit                   // LIMIT/OFFSET
)

func (k opKind) String() string {
	switch k {
	case opScan:
		return "scan"
	case opIndexScan:
		return "index_scan"
	case opNLJoin:
		return "nl_join"
	case opINLJoin:
		return "inl_join"
	case opHashJoin:
		return "hash_join"
	case opFilter:
		return "filter"
	case opHashAgg:
		return "hash_agg"
	case opProject:
		return "project"
	case opSort:
		return "sort"
	case opTopN:
		return "topn"
	case opDistinct:
		return "distinct"
	default:
		return "limit"
	}
}

// planNode is one operator. Join nodes embed their inner-side access (table,
// index, key expression) rather than a child subtree: the executor's
// pipeline is strictly left-deep, so the plan is a chain from the top filter
// down to the driving scan via input.
type planNode struct {
	id   int
	kind opKind

	input *planNode // outer input; nil for the driving access

	slot    int    // scope slot this node fills (scans and joins)
	tbl     *Table // accessed table (scans and joins)
	idxName string // index backing an index_scan / inl_join lookup
	eqCol   int    // inner key column (index_scan, inl_join, hash_join)
	eqExpr  Expr   // outer key expression evaluated per probe
	left    bool   // LEFT join (null-extend on no match)

	// filters are the conjuncts this node evaluates on every candidate row
	// it produces, in deterministic assignment order. For index and join
	// nodes the equality conjunct itself is included as a recheck: when MVCC
	// degrades index access to a chain-resolving scan the recheck keeps the
	// operator exact.
	filters []Expr
	where   []*bexpr // filters, bound
	eq      *bexpr   // eqExpr, bound

	detail  string  // pre-rendered operand text (deterministic)
	estRows float64 // estimated output rows
	estCost float64 // estimated rows examined at this node
}

// hasCost reports whether the node charges examined rows (relational access
// nodes do; presentation tail nodes do not).
func (n *planNode) hasCost() bool {
	switch n.kind {
	case opScan, opIndexScan, opNLJoin, opINLJoin, opHashJoin:
		return true
	}
	return false
}

func estInt(f float64) string {
	if f < 0 {
		f = 0
	}
	return strconv.FormatInt(int64(math.Round(f)), 10)
}

// line renders one plan row. acts is the per-node actual output counts of an
// EXPLAIN ANALYZE run (nil for plain EXPLAIN). The format is stable and
// byte-deterministic — the EXPLAIN golden test and the A-PLAN decision log
// both pin it:
//
//	<2·depth spaces><op> <detail> (est=<rows>[ cost=<rows examined>][ act=<rows>])
func (n *planNode) line(depth int, acts []int64) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.kind.String())
	if n.detail != "" {
		b.WriteByte(' ')
		b.WriteString(n.detail)
	}
	b.WriteString(" (est=")
	b.WriteString(estInt(n.estRows))
	if n.hasCost() {
		b.WriteString(" cost=")
		b.WriteString(estInt(n.estCost))
	}
	if acts != nil {
		b.WriteString(" act=")
		b.WriteString(strconv.FormatInt(acts[n.id], 10))
	}
	b.WriteByte(')')
	return b.String()
}

// Lines renders the plan tree top-down, one operator per line, outermost
// first. acts carries EXPLAIN ANALYZE actual row counts (nil otherwise).
func (p *Plan) Lines(acts []int64) []string {
	lines := make([]string, 0, len(p.nodes))
	depth := 0
	for _, n := range p.tail {
		lines = append(lines, n.line(depth, acts))
		depth++
	}
	for n := p.root; n != nil; n = n.input {
		lines = append(lines, n.line(depth, acts))
		depth++
	}
	return lines
}

// Explain renders the plan as a single newline-joined string — the format
// consumed by the A-PLAN decision log and the EXPLAIN golden test.
func (p *Plan) Explain() string { return strings.Join(p.Lines(nil), "\n") }

// Cost returns the plan's total estimated rows examined.
func (p *Plan) Cost() float64 { return p.totalCost }

// sumCost totals the nodes' estimated rows examined into totalCost.
func (p *Plan) sumCost() {
	p.totalCost = 0
	for _, n := range p.nodes {
		if n.hasCost() {
			p.totalCost += n.estCost
		}
	}
}

// current reports whether the plan may run as it stands: the catalog it was
// built against is still the engine's and, for a cost-based plan, every table
// it touches has the statistics it was costed under and has not drifted past
// the staleness threshold since — writes move no generation, so a hot plan
// could otherwise outlive arbitrary data drift. A naive plan is rule-based
// and read no statistics.
func (p *Plan) current(e *Engine) bool {
	if p.epoch != e.catalogEpoch {
		return false
	}
	if p.naive {
		return true
	}
	for _, pt := range p.tables {
		if pt.gen != pt.tbl.statsGen || pt.tbl.stats.stale(pt.tbl.NumRows()) {
			return false
		}
	}
	return true
}

// Naive reports whether the naive (parity) planner built this plan.
func (p *Plan) Naive() bool { return p.naive }

// renderFilters renders a conjunct list as " filter (a AND b)" or "".
func renderFilters(filters []Expr) string {
	if len(filters) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" filter (")
	for i, f := range filters {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte(')')
	return b.String()
}

// exprList renders a comma-separated expression list.
func exprList(es []Expr) string {
	var b strings.Builder
	for i, e := range es {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	return b.String()
}
