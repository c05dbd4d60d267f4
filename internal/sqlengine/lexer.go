package sqlengine

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokParam // ?
	tokSymbol
)

type token struct {
	kind tokenKind
	text string // keywords uppercased, idents as written
	pos  int    // byte offset for error messages
}

// keywords recognized by the dialect, keyed by their canonical upper-case
// spelling (the text a keyword token carries). Idents matching these case
// insensitively lex as keywords.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`
		SELECT INSERT UPDATE DELETE CREATE DROP TABLE DATABASE INTO VALUES SET FROM WHERE
		AND OR NOT NULL TRUE FALSE ORDER BY ASC DESC LIMIT OFFSET GROUP JOIN INNER LEFT ON AS
		IN IS LIKE BETWEEN PRIMARY KEY INDEX UNIQUE IF EXISTS BEGIN COMMIT ROLLBACK USE
		EXPLAIN ANALYZE SHOW DESCRIBE INT INTEGER BIGINT DOUBLE FLOAT VARCHAR TEXT BOOLEAN
		BOOL TIMESTAMP DATETIME COUNT SUM AVG MIN MAX DISTINCT HAVING TRUNCATE`) {
		m[kw] = kw
	}
	return m
}()

// keywordOf returns the canonical spelling of word if it is a keyword. The
// upper-cased probe lives on the stack: the lexer sees every identifier of
// every statement, and a copy per identifier was its largest allocation.
func keywordOf(word string) (string, bool) {
	var up [12]byte // longer than any keyword
	if len(word) > len(up) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		up[i] = word[i]
		if 'a' <= up[i] && up[i] <= 'z' {
			up[i] -= 'a' - 'A'
		}
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// lexError is a tokenization failure.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("lex error at offset %d: %s", e.pos, e.msg) }

// lex tokenizes a SQL string.
func lex(sql string) ([]token, error) {
	// Sized so typical statements tokenize in one allocation — replication
	// apply lexes every shipped write, so repeated slice growth adds up.
	toks := make([]token, 0, len(sql)/3+4)
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && sql[i+1] == '-':
			for i < n && sql[i] != '\n' {
				i++
			}
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(sql[i+1])):
			start := i
			isFloat := false
			for i < n && (isDigit(sql[i]) || sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' ||
				((sql[i] == '+' || sql[i] == '-') && i > start && (sql[i-1] == 'e' || sql[i-1] == 'E'))) {
				if sql[i] == '.' || sql[i] == 'e' || sql[i] == 'E' {
					isFloat = true
				}
				i++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, sql[start:i], start})
		case c == '\'':
			start := i
			i++
			// A literal without escapes is a substring of the input.
			if j := strings.IndexAny(sql[i:], `'\`); j >= 0 && sql[i+j] == '\'' && (i+j+1 >= n || sql[i+j+1] != '\'') {
				toks = append(toks, token{tokString, sql[i : i+j], start})
				i += j + 1
				continue
			}
			var b strings.Builder
			closed := false
			for i < n {
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				if sql[i] == '\\' && i+1 < n { // backslash escapes
					switch sql[i+1] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case '\'', '\\':
						b.WriteByte(sql[i+1])
					default:
						b.WriteByte(sql[i+1])
					}
					i += 2
					continue
				}
				b.WriteByte(sql[i])
				i++
			}
			if !closed {
				return nil, &lexError{start, "unterminated string literal"}
			}
			toks = append(toks, token{tokString, b.String(), start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(sql[i]) {
				i++
			}
			if kw, ok := keywordOf(sql[start:i]); ok {
				toks = append(toks, token{tokKeyword, kw, start})
			} else {
				toks = append(toks, token{tokIdent, sql[start:i], start})
			}
		case c == '`': // quoted identifier
			start := i
			i++
			j := strings.IndexByte(sql[i:], '`')
			if j < 0 {
				return nil, &lexError{start, "unterminated quoted identifier"}
			}
			toks = append(toks, token{tokIdent, sql[i : i+j], start})
			i += j + 1
		case c == '?':
			toks = append(toks, token{tokParam, "?", i})
			i++
		default:
			// Symbol tokens are substrings of the input: multi-byte
			// operators first, then the one-byte ones.
			width := 1
			if i+1 < n {
				switch sql[i : i+2] {
				case "<=", ">=", "<>", "!=":
					width = 2
				}
			}
			if width == 1 && !strings.ContainsRune("(),*+-/%=<>.;", rune(c)) {
				return nil, &lexError{i, fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, token{tokSymbol, sql[i : i+width], i})
			i += width
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '$' }
