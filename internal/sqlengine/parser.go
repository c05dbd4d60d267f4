package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error with its byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("parse error at offset %d: %s", e.Pos, e.Msg)
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(sql string) (Stmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt := p.statement()
	p.acceptSym(";")
	if p.peek().kind != tokEOF {
		p.errf("unexpected trailing input %q", p.peek().text)
	}
	if p.err != nil {
		return nil, p.err
	}
	return stmt, nil
}

// parser is a recursive-descent parser over one statement's tokens. The
// first error sticks, as the resolver's does: from then on the parser reads
// end of input, so every rule returns at once and Parse reports that error.
type parser struct {
	toks   []token
	pos    int
	params int
	err    error
}

func (p *parser) peek() token {
	if p.err != nil {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos]
}

func (p *parser) peek2() token {
	if p.err != nil {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[min(p.pos+1, len(p.toks)-1)]
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks)-1 && p.err == nil {
		p.pos++
	}
	return t
}

// errf records an error at the current token, unless one is recorded.
func (p *parser) errf(format string, args ...any) {
	if p.err == nil {
		p.err = &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...)}
	}
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) {
	if !p.acceptKw(kw) {
		p.errf("expected %s, got %q", kw, p.peek().text)
	}
}

func (p *parser) acceptSym(s string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSym(s string) {
	if !p.acceptSym(s) {
		p.errf("expected %q, got %q", s, p.peek().text)
	}
}

// ident accepts an identifier (or a non-reserved keyword used as a name).
func (p *parser) ident() string {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text
	}
	// Permit a few keywords commonly used as identifiers.
	if t.kind == tokKeyword {
		switch t.text {
		case "KEY", "INDEX", "COUNT", "MIN", "MAX", "SUM", "AVG", "TIMESTAMP", "DATABASE", "TEXT":
			p.next()
			return strings.ToLower(t.text)
		}
	}
	p.errf("expected identifier, got %q", t.text)
	return ""
}

func (p *parser) statement() Stmt {
	t := p.peek()
	if t.kind != tokKeyword {
		p.errf("expected statement keyword, got %q", t.text)
		return nil
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "BEGIN", "COMMIT", "ROLLBACK":
		p.next()
		return &TxnStmt{Verb: t.text}
	case "USE":
		p.next()
		return &UseStmt{DB: p.ident()}
	}
	p.errf("unsupported statement %q", t.text)
	return nil
}

// tableRef parses [db.]table [AS alias].
func (p *parser) tableRef(allowAlias bool) TableRef {
	ref := TableRef{Name: p.ident()}
	if p.acceptSym(".") {
		ref.DB, ref.Name = ref.Name, p.ident()
	}
	if allowAlias {
		if p.acceptKw("AS") {
			ref.Alias = p.ident()
		} else if p.peek().kind == tokIdent {
			ref.Alias = p.next().text
		}
	}
	return ref
}

func (p *parser) createStmt() Stmt {
	p.next() // CREATE
	if p.acceptKw("DATABASE") {
		ifne := p.ifNotExists()
		return &CreateDatabaseStmt{Name: p.ident(), IfNotExists: ifne}
	}
	p.expectKw("TABLE")
	ifne := p.ifNotExists()
	stmt := &CreateTableStmt{Table: p.tableRef(false), IfNotExists: ifne}
	p.expectSym("(")
	for {
		t := p.peek()
		switch {
		case t.kind == tokKeyword && t.text == "PRIMARY":
			p.next()
			p.expectKw("KEY")
			stmt.PrimaryKey = p.parenIdentList()
		case t.kind == tokKeyword && (t.text == "INDEX" || t.text == "UNIQUE"):
			unique := t.text == "UNIQUE"
			p.next()
			if unique {
				p.acceptKw("INDEX")
			}
			ixName := ""
			if p.peek().kind == tokIdent {
				ixName = p.next().text
			}
			cols := p.parenIdentList()
			if ixName == "" {
				ixName = "idx_" + strings.Join(cols, "_")
			}
			stmt.Indexes = append(stmt.Indexes, IndexDef{Name: ixName, Columns: cols, Unique: unique})
		default:
			stmt.Columns = append(stmt.Columns, p.columnDef())
		}
		if !p.acceptSym(",") {
			p.expectSym(")")
			return stmt
		}
	}
}

func (p *parser) ifNotExists() bool {
	if !p.acceptKw("IF") {
		return false
	}
	p.expectKw("NOT")
	p.expectKw("EXISTS")
	return true
}

func (p *parser) parenIdentList() []string {
	p.expectSym("(")
	var out []string
	for {
		out = append(out, p.ident())
		if !p.acceptSym(",") {
			p.expectSym(")")
			return out
		}
	}
}

func (p *parser) columnDef() ColumnDef {
	col := ColumnDef{Name: p.ident()}
	t := p.peek()
	if t.kind != tokKeyword {
		p.errf("expected column type, got %q", t.text)
		return col
	}
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		col.Type = KindInt
	case "DOUBLE", "FLOAT":
		col.Type = KindFloat
	case "VARCHAR", "TEXT":
		col.Type = KindString
	case "BOOLEAN", "BOOL":
		col.Type = KindBool
	case "TIMESTAMP", "DATETIME":
		col.Type = KindTime
	default:
		p.errf("unsupported column type %q", t.text)
		return col
	}
	p.next()
	if p.acceptSym("(") {
		if p.peek().kind != tokInt {
			p.errf("expected type length")
			return col
		}
		col.TypeArg, _ = strconv.Atoi(p.next().text)
		p.expectSym(")")
	}
	for {
		switch {
		case p.acceptKw("NOT"):
			p.expectKw("NULL")
			col.NotNull = true
		case p.acceptKw("NULL"):
			// accepted, default
		case p.acceptKw("PRIMARY"):
			p.expectKw("KEY")
			col.PrimaryKey = true
			col.NotNull = true
		default:
			return col
		}
	}
}

func (p *parser) insertStmt() Stmt {
	p.next() // INSERT
	p.expectKw("INTO")
	stmt := &InsertStmt{Table: p.tableRef(false)}
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		stmt.Columns = p.parenIdentList()
	}
	p.expectKw("VALUES")
	for {
		p.expectSym("(")
		stmt.Rows = append(stmt.Rows, p.operands())
		p.expectSym(")")
		if !p.acceptSym(",") {
			return stmt
		}
	}
}

func (p *parser) updateStmt() Stmt {
	p.next() // UPDATE
	stmt := &UpdateStmt{Table: p.tableRef(false)}
	p.expectKw("SET")
	for {
		col := p.ident()
		p.expectSym("=")
		stmt.Sets = append(stmt.Sets, Assignment{col, p.operand()})
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		stmt.Where = p.predicate()
	}
	return stmt
}

func (p *parser) deleteStmt() Stmt {
	p.next() // DELETE
	p.expectKw("FROM")
	stmt := &DeleteStmt{Table: p.tableRef(false)}
	if p.acceptKw("WHERE") {
		stmt.Where = p.predicate()
	}
	return stmt
}

func (p *parser) selectStmt() Stmt {
	p.next() // SELECT
	stmt := &SelectStmt{}
	stmt.Distinct = p.acceptKw("DISTINCT")
	for {
		if p.acceptSym("*") {
			stmt.Exprs = append(stmt.Exprs, SelectExpr{Star: true})
		} else {
			se := SelectExpr{Expr: p.operand()}
			if p.acceptKw("AS") {
				se.Alias = p.ident()
			} else if p.peek().kind == tokIdent {
				se.Alias = p.next().text
			}
			stmt.Exprs = append(stmt.Exprs, se)
		}
		if !p.acceptSym(",") {
			break
		}
	}
	p.expectKw("FROM")
	stmt.From = p.tableRef(true)
	for p.acceptKw("JOIN") {
		j := JoinClause{Table: p.tableRef(true)}
		p.expectKw("ON")
		j.On = p.predicate()
		stmt.Joins = append(stmt.Joins, j)
	}
	if p.acceptKw("WHERE") {
		stmt.Where = p.predicate()
	}
	if p.acceptKw("GROUP") {
		p.expectKw("BY")
		stmt.GroupBy = p.operands()
	}
	if p.acceptKw("HAVING") {
		stmt.Having = p.predicate()
	}
	if p.acceptKw("ORDER") {
		p.expectKw("BY")
		for {
			item := OrderItem{Expr: p.operand()}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		stmt.Limit = p.operand()
		if p.acceptSym(",") { // LIMIT offset, count
			stmt.Offset, stmt.Limit = stmt.Limit, p.operand()
		}
	}
	if p.acceptKw("OFFSET") {
		stmt.Offset = p.operand()
	}
	return stmt
}

// Expression grammar. A predicate — WHERE, ON, HAVING — is an AND of terms
// over operands; everywhere else — the select list, GROUP BY, ORDER BY,
// LIMIT, OFFSET, VALUES, SET — a value is one operand:
//
//	predicate := term (AND term)*
//	term      := ( predicate ) | operand [(=|!=|<>|<|<=|>|>=) operand
//	             | IN ( operand, ... ) | LIKE operand]
//	operand   := literal | -number | ? | [table.]column
//	             | name ( [* | operand, ...] )
func (p *parser) predicate() Expr {
	l := p.term()
	for p.acceptKw("AND") {
		l = &Binary{Op: "AND", L: l, R: p.term()}
	}
	return l
}

func (p *parser) term() Expr {
	if p.acceptSym("(") {
		e := p.predicate()
		p.expectSym(")")
		return e
	}
	l := p.operand()
	t := p.peek()
	switch {
	case t.kind == tokSymbol:
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.next()
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return &Binary{Op: op, L: l, R: p.operand()}
		}
	case p.acceptKw("IN"):
		p.expectSym("(")
		in := &InExpr{X: l, List: p.operands()}
		p.expectSym(")")
		return in
	case p.acceptKw("LIKE"):
		return &LikeExpr{X: l, Pattern: p.operand()}
	}
	return l
}

// operands parses a comma-separated operand list.
func (p *parser) operands() []Expr {
	var out []Expr
	for {
		out = append(out, p.operand())
		if !p.acceptSym(",") {
			return out
		}
	}
}

func (p *parser) operand() Expr {
	t := p.peek()
	switch t.kind {
	case tokInt, tokFloat:
		return p.number(false)
	case tokString:
		p.next()
		return &Literal{V: NewString(t.text)}
	case tokParam:
		p.next()
		e := &Param{Index: p.params}
		p.params++
		return e
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{V: Null}
		case "TRUE":
			p.next()
			return &Literal{V: NewBool(true)}
		case "FALSE":
			p.next()
			return &Literal{V: NewBool(false)}
		case "COUNT", "SUM", "AVG", "MIN", "MAX", "IF":
			p.next()
			return p.funcCall(t.text)
		}
		p.errf("unexpected keyword %q in expression", t.text)
		return nil
	case tokIdent:
		// function call, qualified column, or bare column
		if p.peek2().kind == tokSymbol && p.peek2().text == "(" {
			return p.funcCall(strings.ToUpper(p.next().text))
		}
		p.next()
		if p.acceptSym(".") {
			return &ColRef{Table: t.text, Name: p.ident()}
		}
		return &ColRef{Name: t.text}
	case tokSymbol:
		// A negative number, as Value.SQL renders one.
		if k := p.peek2().kind; t.text == "-" && (k == tokInt || k == tokFloat) {
			p.next()
			return p.number(true)
		}
	}
	p.errf("unexpected token %q in expression", t.text)
	return nil
}

// number reads a numeric literal, negated when neg.
func (p *parser) number(neg bool) Expr {
	t := p.peek()
	if t.kind == tokInt {
		s := t.text
		if neg {
			s = "-" + s
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			p.errf("invalid integer literal")
		}
		p.next()
		return &Literal{V: NewInt(n)}
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		p.errf("invalid float literal")
	}
	p.next()
	if neg {
		// 0 - f, not -f: a negative zero would render as "-0", which reads
		// back as the integer 0.
		f = 0 - f
	}
	return &Literal{V: NewFloat(f)}
}

func (p *parser) funcCall(name string) Expr {
	p.expectSym("(")
	fc := &FuncCall{Name: name}
	switch {
	case p.acceptSym("*"):
		fc.Star = true
	case p.peek().kind != tokSymbol || p.peek().text != ")":
		fc.Args = p.operands()
	}
	p.expectSym(")")
	return fc
}
