package sqlengine

import (
	"fmt"
	"strings"
)

// Stmt is a parsed SQL statement (the AST root). String renders it back to
// SQL, placeholders as ?; the fully-interpolated text recorded in the binlog
// is that rendering with each ? replaced by its argument's literal
// (Statement.Logged). The canonical String rendering also identifies a
// prepared statement: two texts differing only in whitespace or keyword case
// share one Statement and its plans.
//
// Stmt is the raw parse-tree layer. The prepared-statement handle the engine
// hands out is *Statement (prepare.go), which wraps a Stmt together with its
// normalization and plan-cache identity.
type Stmt interface {
	String() string
	stmt()
}

// quoteIdent renders an identifier so that it lexes back as itself: bare when
// it is a word the lexer reads as an identifier, back-quoted when it is a
// keyword, empty, or holds a byte no bare identifier can. A statement's
// rendering is the text the binlog ships, so it has to re-parse.
func quoteIdent(name string) string {
	if bareWord(name) {
		if _, kw := keywordOf(name); !kw {
			return name
		}
	}
	return "`" + name + "`"
}

// quoteFunc is quoteIdent for a function name, which may also be one of the
// keywords the parser reads as a call.
func quoteFunc(name string) string {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "IF":
		return name
	}
	return quoteIdent(name)
}

func bareWord(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// quoteIdents renders a comma-separated identifier list.
func quoteIdents(names []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(n))
	}
	return b.String()
}

// TableRef names a table, optionally database-qualified and aliased.
type TableRef struct {
	DB    string
	Name  string
	Alias string
}

func (t TableRef) String() string {
	s := quoteIdent(t.Name)
	if t.DB != "" {
		s = quoteIdent(t.DB) + "." + s
	}
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// refName returns the name the table is known by in scope.
func (t TableRef) refName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// ColumnDef defines a column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Kind
	TypeArg    int // VARCHAR length / TIMESTAMP precision, 0 when absent
	NotNull    bool
	PrimaryKey bool
}

func (c ColumnDef) String() string {
	s := quoteIdent(c.Name) + " " + typeName(c.Type, c.TypeArg)
	if c.NotNull {
		s += " NOT NULL"
	}
	if c.PrimaryKey {
		s += " PRIMARY KEY"
	}
	return s
}

func typeName(k Kind, arg int) string {
	switch k {
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		if arg > 0 {
			return fmt.Sprintf("VARCHAR(%d)", arg)
		}
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		if arg > 0 {
			return fmt.Sprintf("TIMESTAMP(%d)", arg)
		}
		return "TIMESTAMP"
	default:
		return k.String()
	}
}

// IndexDef defines a secondary index in CREATE TABLE.
type IndexDef struct {
	Name    string
	Columns []string
	Unique  bool
}

func (ix IndexDef) String() string {
	kw := "INDEX"
	if ix.Unique {
		kw = "UNIQUE INDEX"
	}
	return fmt.Sprintf("%s %s(%s)", kw, quoteIdent(ix.Name), quoteIdents(ix.Columns))
}

// CreateDatabaseStmt is CREATE DATABASE.
type CreateDatabaseStmt struct {
	Name        string
	IfNotExists bool
}

func (s *CreateDatabaseStmt) String() string {
	ifne := ""
	if s.IfNotExists {
		ifne = "IF NOT EXISTS "
	}
	return "CREATE DATABASE " + ifne + quoteIdent(s.Name)
}
func (*CreateDatabaseStmt) stmt() {}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table       TableRef
	Columns     []ColumnDef
	PrimaryKey  []string // table-level PK, empty when inline
	Indexes     []IndexDef
	IfNotExists bool
}

func (s *CreateTableStmt) String() string {
	var parts []string
	for _, c := range s.Columns {
		parts = append(parts, c.String())
	}
	if len(s.PrimaryKey) > 0 {
		parts = append(parts, "PRIMARY KEY ("+quoteIdents(s.PrimaryKey)+")")
	}
	for _, ix := range s.Indexes {
		parts = append(parts, ix.String())
	}
	ifne := ""
	if s.IfNotExists {
		ifne = "IF NOT EXISTS "
	}
	return "CREATE TABLE " + ifne + s.Table.String() + " (" + strings.Join(parts, ", ") + ")"
}
func (*CreateTableStmt) stmt() {}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    TableRef
	IfExists bool
}

func (s *DropTableStmt) String() string {
	ife := ""
	if s.IfExists {
		ife = "IF EXISTS "
	}
	return "DROP TABLE " + ife + s.Table.String()
}
func (*DropTableStmt) stmt() {}

// TruncateStmt is TRUNCATE TABLE.
type TruncateStmt struct {
	Table TableRef
}

func (s *TruncateStmt) String() string { return "TRUNCATE TABLE " + s.Table.String() }
func (*TruncateStmt) stmt()            {}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   TableRef
	Columns []string
	Rows    [][]Expr
}

func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(s.Table.String())
	if len(s.Columns) > 0 {
		b.WriteString(" (" + quoteIdents(s.Columns) + ")")
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}
func (*InsertStmt) stmt() {}

// Assignment is one SET clause of UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table TableRef
	Sets  []Assignment
	Where Expr
}

func (s *UpdateStmt) String() string {
	var sets []string
	for _, a := range s.Sets {
		sets = append(sets, quoteIdent(a.Column)+" = "+a.Value.String())
	}
	out := "UPDATE " + s.Table.String() + " SET " + strings.Join(sets, ", ")
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}
func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table TableRef
	Where Expr
}

func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + s.Table.String()
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}
func (*DeleteStmt) stmt() {}

// SelectExpr is one projection of a SELECT.
type SelectExpr struct {
	Star  bool // SELECT *
	Expr  Expr
	Alias string
}

func (se SelectExpr) String() string {
	if se.Star {
		return "*"
	}
	s := se.Expr.String()
	if se.Alias != "" {
		s += " AS " + quoteIdent(se.Alias)
	}
	return s
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	s := o.Expr.String()
	if o.Desc {
		s += " DESC"
	}
	return s
}

// JoinClause is an INNER/LEFT join.
type JoinClause struct {
	Left  bool
	Table TableRef
	On    Expr
}

func (j JoinClause) String() string {
	kw := "JOIN"
	if j.Left {
		kw = "LEFT JOIN"
	}
	return kw + " " + j.Table.String() + " ON " + j.On.String()
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Distinct bool
	Exprs    []SelectExpr
	From     *TableRef // nil for table-less SELECT
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil when absent
	Offset   Expr
}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, e := range s.Exprs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	if s.From != nil {
		b.WriteString(" FROM " + s.From.String())
	}
	for _, j := range s.Joins {
		b.WriteString(" " + j.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		var gs []string
		for _, g := range s.GroupBy {
			gs = append(gs, g.String())
		}
		b.WriteString(" GROUP BY " + strings.Join(gs, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		var os []string
		for _, o := range s.OrderBy {
			os = append(os, o.String())
		}
		b.WriteString(" ORDER BY " + strings.Join(os, ", "))
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT " + s.Limit.String())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET " + s.Offset.String())
	}
	return b.String()
}
func (*SelectStmt) stmt() {}

// BeginStmt is BEGIN.
type BeginStmt struct{}

func (*BeginStmt) String() string { return "BEGIN" }
func (*BeginStmt) stmt()          {}

// CommitStmt is COMMIT.
type CommitStmt struct{}

func (*CommitStmt) String() string { return "COMMIT" }
func (*CommitStmt) stmt()          {}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

func (*RollbackStmt) String() string { return "ROLLBACK" }
func (*RollbackStmt) stmt()          {}

// UseStmt is USE db.
type UseStmt struct{ DB string }

func (s *UseStmt) String() string { return "USE " + quoteIdent(s.DB) }
func (*UseStmt) stmt()            {}

// Expr is an expression node.
type Expr interface {
	String() string
	expr()
}

// Literal is a constant value.
type Literal struct{ V Value }

func (l *Literal) String() string { return l.V.SQL() }
func (*Literal) expr()            {}

// Param is a positional ? placeholder.
type Param struct{ Index int }

func (*Param) String() string { return "?" }
func (*Param) expr()          {}

// ColRef references a column, optionally qualified by table name or alias.
type ColRef struct {
	Table, Name string
}

func (c *ColRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}
func (*ColRef) expr() {}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *Unary) String() string {
	// Fully parenthesized so the rendering re-parses at any precedence
	// level (e.g. as a BETWEEN operand).
	if u.Op == "NOT" {
		return "(NOT (" + u.X.String() + "))"
	}
	return "(-(" + u.X.String() + "))"
}
func (*Unary) expr() {}

// Binary is a binary operation: comparison, logic or arithmetic.
type Binary struct {
	Op   string // = != <> < <= > >= AND OR + - * / %
	L, R Expr
}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}
func (*Binary) expr() {}

// FuncCall is a builtin or aggregate call.
type FuncCall struct {
	Name     string // uppercased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (f *FuncCall) String() string {
	if f.Star {
		return quoteFunc(f.Name) + "(*)"
	}
	var args []string
	for _, a := range f.Args {
		args = append(args, a.String())
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return quoteFunc(f.Name) + "(" + d + strings.Join(args, ", ") + ")"
}
func (*FuncCall) expr() {}

// InExpr is x [NOT] IN (list).
type InExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

func (e *InExpr) String() string {
	var items []string
	for _, it := range e.List {
		items = append(items, it.String())
	}
	op := " IN "
	if e.Not {
		op = " NOT IN "
	}
	return "(" + e.X.String() + op + "(" + strings.Join(items, ", ") + "))"
}
func (*InExpr) expr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (e *BetweenExpr) String() string {
	op := " BETWEEN "
	if e.Not {
		op = " NOT BETWEEN "
	}
	return "(" + e.X.String() + op + e.Lo.String() + " AND " + e.Hi.String() + ")"
}
func (*BetweenExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}
func (*IsNullExpr) expr() {}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (e *LikeExpr) String() string {
	op := " LIKE "
	if e.Not {
		op = " NOT LIKE "
	}
	return "(" + e.X.String() + op + e.Pattern.String() + ")"
}
func (*LikeExpr) expr() {}
