// Package sqlengine is an embeddable in-memory relational engine with a
// MySQL-flavored SQL dialect: typed tables with primary keys and secondary
// indexes, INSERT/UPDATE/DELETE/SELECT (joins, aggregates, ORDER BY/LIMIT),
// MVCC row versioning with snapshot-isolated transactions (mvcc.go),
// positional parameters, and a statement-commit hook that feeds
// statement-based replication.
//
// The engine stands in for MySQL 5.x in the paper's experiments. Two
// properties matter for fidelity: per-statement execution statistics (rows
// examined/affected) drive the virtual CPU cost model, and time builtins
// (UTC_MICROS, NOW) are evaluated against the *local* instance clock at
// execution time, so a replicated heartbeat INSERT commits the slave's own
// timestamp when the slave's SQL thread re-executes it — the paper's delay
// measurement methodology.
package sqlengine

import (
	"fmt"
	"strings"
	"sync"
)

// StmtClass classifies a statement for cost accounting and routing.
type StmtClass uint8

// Statement classes.
const (
	ClassRead  StmtClass = iota // SELECT
	ClassWrite                  // INSERT, UPDATE, DELETE
	ClassDDL                    // CREATE, DROP, TRUNCATE
	ClassTxn                    // BEGIN, COMMIT, ROLLBACK, USE
)

func (c StmtClass) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassDDL:
		return "ddl"
	default:
		return "txn"
	}
}

// ExecStats describes the work one statement performed; the server layer
// converts it to virtual CPU time.
type ExecStats struct {
	RowsExamined int
	RowsReturned int
	RowsAffected int
	UsedIndex    bool
	Class        StmtClass
}

// ResultSet is the rows returned by a SELECT.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// Result is the outcome of executing one statement.
type Result struct {
	Set   *ResultSet // nil for non-SELECT
	Stats ExecStats
	// SQL is the text of a DDL statement — what its binlog entry carries — or
	// of a session statement, SHOW or EXPLAIN. Reads and writes leave it
	// empty: nothing replicates a SELECT, and a write's text is its
	// LoggedWrite's, rendered only when something reads it.
	SQL string
	// RowSQL carries the row-image statements (one per affected row) that
	// a row-format binlog records instead of SQL.
	RowSQL []string
}

// Reply is the storage a statement's outcome is written to: the Result and,
// when the statement returns rows, the ResultSet its Set points at. Run
// allocates one per call; RunInto fills the caller's, and Replay the
// session's. A filled Reply is overwritten by the next statement run into it.
type Reply struct {
	Result Result
	Set    ResultSet
}

// LoggedWrite is one committed write as the commit hook hands it to the
// binlog, and as Session.Replay takes it back on a replica. A parameterised
// statement is logged as its prepared form alone; its replayable text — the
// only part a wire encoding carries — is a view of that form, measured when
// the write is logged and rendered when Text is called.
type LoggedWrite struct {
	// SQL is the replayable text of a write that has no prepared form — a
	// statement without parameters, DDL, a row-format image, an entry that
	// came off the wire — and empty for one that has (see Text).
	SQL string
	// Stmt is the parameterised text the statement was prepared from
	// (Statement.Norm) and Args the argument vector it ran with: text and
	// values, so any engine can prepare Stmt for itself and run its own
	// compiled plan instead of parsing text. Args is owned by the write —
	// shared by every copy of it and never written — and both are empty when
	// the write has no prepared form.
	Stmt string
	Args []Value

	tmpl    *template // renders the text of a prepared form; nil without one
	textLen int       // the length of that text
}

// Text returns the replayable statement text with parameters interpolated:
// SQL, or the prepared form rendered (one new string per call).
func (w LoggedWrite) Text() string {
	if w.tmpl == nil || w.SQL != "" {
		return w.SQL
	}
	return string(w.tmpl.appendText(make([]byte, 0, w.textLen), w.Args))
}

// TextLen returns len(Text()) without rendering it.
func (w LoggedWrite) TextLen() int {
	if w.tmpl == nil {
		return len(w.SQL)
	}
	return w.textLen
}

// CommitHook observes committed writes in commit order. database is the
// session's current database. The slice is only valid during the call.
type CommitHook func(database string, writes []LoggedWrite)

// BinlogFormat selects how committed writes are rendered for replication.
type BinlogFormat uint8

const (
	// FormatStatement logs the original statement text; non-deterministic
	// builtins (UTC_MICROS) re-evaluate on each replica — MySQL SBR and
	// the mode the paper's heartbeat methodology depends on.
	FormatStatement BinlogFormat = iota
	// FormatRow logs deterministic per-row images (literal values fixed at
	// the master) — MySQL RBR. Replicas apply exactly the master's values,
	// so the heartbeat trick stops working (the negative control).
	FormatRow
)

// Engine is a single server's database engine: a set of databases, a parse
// cache, a local-time source for time builtins and a commit hook feeding
// the binlog.
type Engine struct {
	mu  sync.RWMutex
	dbs map[string]*Database

	// NowMicros supplies local time in microseconds for UTC_MICROS()/NOW().
	// The database server binds it to its instance's drifting clock.
	NowMicros func() int64
	// Format selects statement- or row-based rendering for the commit hook.
	Format BinlogFormat
	// OnCommit, when non-nil, receives every committed write statement.
	OnCommit CommitHook

	// MVCC state (mvcc.go): commitV is the engine's commit counter — every
	// finalized write statement or transaction takes the next version, and
	// replicas additionally advance it to the applied binlog sequence. pins
	// holds versions kept alive by open SnapshotHandles, txns the sessions
	// with open transactions, provisional the outstanding in-transaction
	// stamps (the fast-path read check).
	commitV     uint64
	pins        []uint64
	txns        []*Session
	provisional int

	progress

	// parseCache maps statement text to its *Statement (prepare.go): the
	// text as written and its normalized rendering share one entry, so
	// textual variants share one parse and one set of plans.
	parseCache sync.Map

	// text is the buffer a write's replayable text is rendered into to be
	// measured (Statement.logged); args is the chunk logged argument vectors
	// are copied into (own).
	text []byte
	args []Value

	// catalogEpoch advances when *Table pointers stop being good — CREATE and
	// DROP TABLE, snapshot Restore — and retires every plan and write plan,
	// which embed them. What a plan read of a table's statistics is that
	// table's own generation (Table.statsGen).
	catalogEpoch uint64
	// distinct is ANALYZE's scratch: one set of distinct values per column
	// position, left empty between passes (stats.go).
	distinct []keyMap[struct{}]

	// NaivePlan forces the syntax-order, no-pushdown planner for every
	// statement — the A-PLAN ablation's baseline arm, mirroring the
	// pre-planner executor's access-path choices exactly.
	NaivePlan bool
}

// progress is how far an engine has come, beside its commit version: the part
// of its state that is neither data nor node-local, which a Snapshot carries
// and Restore puts back, so that an engine restored from an image goes on
// counting, and sweeping, where the image's source stood.
type progress struct {
	// sinceGC is the commits since the last chain-GC sweep; the rest is what
	// GCStats reports.
	sinceGC    int
	gcRuns     uint64
	gcVersions uint64
	gcRows     uint64

	// planBuilds counts the SELECT plans and write plans built for a
	// statement to run — its first, and one more each time the catalog epoch,
	// a statistics generation of one of its tables or drift retires the last;
	// analyzeRuns the statistics passes (PlanStats).
	planBuilds  uint64
	analyzeRuns uint64
}

// Database is a named collection of tables.
type Database struct {
	Name   string
	tables map[string]*Table
}

// Table looks up a table by case-insensitive name.
func (d *Database) Table(name string) (*Table, bool) {
	t, ok := d.tables[strings.ToLower(name)]
	return t, ok
}

// NewEngine creates an empty engine. Time builtins read zero until
// NowMicros is set.
func NewEngine() *Engine {
	return &Engine{
		dbs:       make(map[string]*Database),
		NowMicros: func() int64 { return 0 },
	}
}

// CreateDatabase creates a database, erroring if it exists (unless ifNotExists).
func (e *Engine) CreateDatabase(name string, ifNotExists bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.createDatabaseLocked(name, ifNotExists)
}

// Database returns a database by case-insensitive name.
func (e *Engine) Database(name string) (*Database, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.dbs[strings.ToLower(name)]
	return d, ok
}

// Session is a connection-scoped execution context: current database,
// transaction state and undo log.
type Session struct {
	eng *Engine
	db  string

	inTxn   bool
	readV   uint64        // snapshot read version while inTxn (set at BEGIN)
	pending []LoggedWrite // writes awaiting commit, in order
	// log is the rows the uncommitted write statements touched, each one's
	// effect a window onto it: stamped with the commit version at commit,
	// undone newest first on rollback, then truncated and reused (mvcc.go).
	log []rowChange
	// provisional counts this session's outstanding in-transaction effects,
	// mirrored into Engine.provisional for the fast-path read check.
	provisional int
	// one backs the single-write slice an autocommit statement hands the
	// commit hook.
	one      [1]LoggedWrite
	replayed Reply // what Replay hands back
}

// NewSession opens a session with the given current database (may be "").
func (e *Engine) NewSession(db string) *Session {
	return &Session{eng: e, db: db}
}

// DB returns the session's current database name.
func (s *Session) DB() string { return s.db }

// Use makes db the session's current database, as a USE statement does — for
// a caller that holds the name, not a statement.
func (s *Session) Use(db string) error {
	if _, ok := s.eng.Database(db); !ok {
		return fmt.Errorf("sqlengine: unknown database %s", db)
	}
	s.db = db
	return nil
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.inTxn }

// Exec executes one statement with args: Engine.Prepare — a parse-cache hit
// per statement text — then the run Statement.Run makes. A caller that keeps
// the Statement saves the cache lookup and can ask it for its Plan.
func (s *Session) Exec(sql string, args ...Value) (*Result, error) {
	stmt, err := s.eng.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return s.run(stmt, args, LoggedWrite{}, nil)
}

// Replay re-executes a logged write — replication apply, multi-master apply
// and split catch-up all come through here. An entry that carries its
// prepared form runs this engine's own compiled plan for Stmt with Args: a
// parse-cache hit per template, whatever the literals. One that does not is
// parsed from SQL without touching the parse cache: such texts carry
// interpolated literals, so caching them would only grow it without bound
// over a run. Either way w is what this engine's own commit hook receives, as
// it came: nothing is rendered or copied again. The Result is the session's
// own, valid until the session's next call.
func (s *Session) Replay(w LoggedWrite) (*Result, error) {
	st, err := s.eng.PrepareLogged(w)
	if err != nil {
		return nil, err
	}
	return s.run(st, w.Args, w, &s.replayed)
}

// PrepareLogged returns the statement that re-executes w: the engine's prepared
// statement for w.Stmt, or an uncached parse of w.SQL when the entry has no
// prepared form.
func (e *Engine) PrepareLogged(w LoggedWrite) (*Statement, error) {
	if w.Stmt != "" {
		return e.Prepare(w.Stmt)
	}
	stmt, err := Parse(w.SQL)
	if err != nil {
		return nil, err
	}
	return &Statement{eng: e, stmt: stmt, nparams: countParams(stmt)}, nil
}

// argChunk is how many argument values one allocation of Engine.args holds.
const argChunk = 1024

// own copies args into the engine's argument chunk and returns the copy, a
// window nothing writes again: the chunk is only ever appended to, and a
// full one is left to the writes that hold windows onto it — a rolled-back
// write's values included. Engine lock held.
func (e *Engine) own(args []Value) []Value {
	if len(args) == 0 {
		return nil
	}
	if cap(e.args)-len(e.args) < len(args) {
		e.args = make([]Value, 0, max(argChunk, len(args)))
	}
	n := len(e.args)
	e.args = append(e.args, args...)
	return e.args[n:len(e.args):len(e.args)]
}

// checkArgs matches an argument vector against a statement's placeholders.
func checkArgs(nparams int, args []Value) error {
	switch {
	case len(args) < nparams:
		return fmt.Errorf("sqlengine: missing argument for parameter %d", len(args)+1)
	case len(args) > nparams:
		return fmt.Errorf("sqlengine: statement has %d parameters but %d arguments given", nparams, len(args))
	}
	return nil
}

// run executes a statement with args. Nothing substitutes the arguments into
// the statement: plans read ? placeholders from args at evaluation time, and
// a write is logged as the statement's template and an owned copy of args.
// from is the logged write being replayed (zero for a client statement). A
// SELECT or a write answers in out — a new Reply when out is nil; the rarer
// kinds allocate their own Result.
func (s *Session) run(st *Statement, args []Value, from LoggedWrite, out *Reply) (*Result, error) {
	switch st.stmt.(type) {
	case *SelectStmt, *ExplainStmt:
		// Checked against the plan, which knows the SELECT's own count.
	default:
		if err := checkArgs(st.nparams, args); err != nil {
			return nil, err
		}
	}
	switch stmt := st.stmt.(type) {
	case *BeginStmt:
		if s.inTxn {
			return nil, fmt.Errorf("sqlengine: nested BEGIN")
		}
		// Snapshot isolation: every read inside the transaction resolves
		// against the commit version current at BEGIN.
		s.eng.mu.Lock()
		s.inTxn = true
		s.readV = s.eng.commitV
		s.eng.txns = append(s.eng.txns, s)
		s.eng.mu.Unlock()
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: "BEGIN"}, nil
	case *CommitStmt:
		s.commit()
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: "COMMIT"}, nil
	case *RollbackStmt:
		s.rollback()
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: "ROLLBACK"}, nil
	case *UseStmt:
		if err := s.Use(stmt.DB); err != nil {
			return nil, err
		}
		return &Result{Stats: ExecStats{Class: ClassTxn}, SQL: stmt.String()}, nil
	}

	if out == nil {
		out = new(Reply)
	}
	s.eng.mu.Lock()
	defer s.eng.mu.Unlock()
	res, err := s.eng.execLocked(s, st, args, out)
	if err != nil {
		return nil, err
	}
	switch res.Stats.Class {
	case ClassWrite:
		// A replayed write is logged as it came; a row-format binlog logs
		// images instead (recordCommit).
		if from.SQL == "" && from.Stmt == "" && s.eng.Format == FormatStatement {
			from, s.eng.text = st.logged(s.eng.own(args), s.eng.text)
		}
		if !s.inTxn {
			// Autocommit: the statement is its own commit — stamp its
			// version marks before the lock drops and anything else can
			// observe them.
			s.finalizeStampsLocked()
		}
		s.recordCommit(res, from)
	case ClassDDL:
		s.recordCommit(res, LoggedWrite{SQL: res.SQL})
	}
	return res, nil
}

// Query is Exec for statements expected to return rows.
func (s *Session) Query(sql string, args ...Value) (*ResultSet, error) {
	res, err := s.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, fmt.Errorf("sqlengine: statement returned no result set")
	}
	return res.Set, nil
}

// recordCommit routes a completed write to the commit hook, immediately in
// autocommit mode or buffered until COMMIT inside a transaction. DDL always
// commits immediately (MySQL's implicit-commit behaviour).
func (s *Session) recordCommit(res *Result, w LoggedWrite) {
	s.one[0] = w
	writes := s.one[:]
	if s.eng.Format == FormatRow && res.Stats.Class == ClassWrite {
		if len(res.RowSQL) == 0 {
			return // write touched no rows: nothing to replicate
		}
		// Row images are literal text: they have no prepared form.
		writes = make([]LoggedWrite, len(res.RowSQL))
		for i, img := range res.RowSQL {
			writes[i] = LoggedWrite{SQL: img}
		}
	}
	if res.Stats.Class == ClassDDL || !s.inTxn {
		// An implicitly-committing statement flushes any open transaction
		// first, preserving order. recordCommit always runs with the engine
		// lock held, so the locked commit form is required here.
		if res.Stats.Class == ClassDDL && s.inTxn {
			s.commitLocked()
		}
		if s.eng.OnCommit != nil {
			s.eng.OnCommit(s.db, writes)
		}
		return
	}
	s.pending = append(s.pending, writes...)
}

func (s *Session) commit() {
	s.eng.mu.Lock()
	s.commitLocked()
	s.eng.mu.Unlock()
}

// commitLocked finalizes the transaction under the engine lock: provisional
// MVCC marks take the next commit version, buffered statements reach the
// binlog hook, and the session leaves the engine's open-transaction set.
func (s *Session) commitLocked() {
	s.finalizeStampsLocked()
	if s.inTxn && len(s.pending) > 0 && s.eng.OnCommit != nil {
		s.eng.OnCommit(s.db, s.pending)
	}
	s.eng.dropTxnLocked(s)
	s.pending = nil
	s.inTxn = false
}

// rollback is the write-side abort path: the transaction's effects are
// undone newest first — heap and index state physically restored, the chain
// entries it pushed popped — and its provisional version marks are discarded
// unstamped.
func (s *Session) rollback() {
	s.eng.mu.Lock()
	s.undoTo(0)
	s.dropEffects()
	s.eng.dropTxnLocked(s)
	s.eng.mu.Unlock()
	s.pending = nil
	s.inTxn = false
}

// resolveTable finds the table named by ref in the session's engine.
func (s *Session) resolveTable(ref TableRef) (*Database, *Table, error) {
	dbName := ref.DB
	if dbName == "" {
		dbName = s.db
	}
	if dbName == "" {
		return nil, nil, fmt.Errorf("sqlengine: no database selected")
	}
	db, ok := s.eng.dbs[strings.ToLower(dbName)]
	if !ok {
		return nil, nil, fmt.Errorf("sqlengine: unknown database %s", dbName)
	}
	t, ok := db.Table(ref.Name)
	if !ok {
		return db, nil, fmt.Errorf("sqlengine: unknown table %s.%s", dbName, ref.Name)
	}
	return db, t, nil
}

// walkStmt visits every expression in a statement.
func walkStmt(stmt Stmt, visit func(Expr)) {
	switch s := stmt.(type) {
	case *ExplainStmt:
		walkStmt(s.Inner, visit)
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				walkExpr(e, visit)
			}
		}
	case *UpdateStmt:
		for _, a := range s.Sets {
			walkExpr(a.Value, visit)
		}
		walkExpr(s.Where, visit)
	case *DeleteStmt:
		walkExpr(s.Where, visit)
	case *SelectStmt:
		for _, se := range s.Exprs {
			walkExpr(se.Expr, visit)
		}
		for _, j := range s.Joins {
			walkExpr(j.On, visit)
		}
		walkExpr(s.Where, visit)
		for _, g := range s.GroupBy {
			walkExpr(g, visit)
		}
		walkExpr(s.Having, visit)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr, visit)
		}
		walkExpr(s.Limit, visit)
		walkExpr(s.Offset, visit)
	}
}

// walkExpr visits e and its children.
func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *Unary:
		walkExpr(e.X, visit)
	case *Binary:
		walkExpr(e.L, visit)
		walkExpr(e.R, visit)
	case *FuncCall:
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	case *InExpr:
		walkExpr(e.X, visit)
		for _, it := range e.List {
			walkExpr(it, visit)
		}
	case *BetweenExpr:
		walkExpr(e.X, visit)
		walkExpr(e.Lo, visit)
		walkExpr(e.Hi, visit)
	case *IsNullExpr:
		walkExpr(e.X, visit)
	case *LikeExpr:
		walkExpr(e.X, visit)
		walkExpr(e.Pattern, visit)
	}
}
