package sqlengine

import (
	"strings"
	"unicode/utf8"
)

// LIKE matches through a compiled pattern (DESIGN.md §14): the pattern is
// lowered and its escapes resolved once, and classified by where its
// wildcards stand, so that a scan pays per row only for the search itself.
// % matches any run of characters, _ exactly one character, \ makes the
// character after it literal (\%, \_, \\), and letters match without regard to
// case, like MySQL's default collation.

// likeKind says where a compiled pattern's literal text has to be found.
type likeKind uint8

const (
	likeExact    likeKind = iota // lit
	likePrefix                   // lit%
	likeSuffix                   // %lit
	likeContains                 // %lit%
	likeGeneral                  // wildcards inside the text: matched step by step
)

// likeProg is one LIKE node's pattern as last compiled. The node keeps it from
// row to row and run to run — the one thing a plan holds on to between runs,
// a short string — and recompiles when the pattern's text changes: a literal
// pattern compiles once per plan, a ? pattern once per run that brings a
// different one. The zero likeProg is the empty pattern, compiled.
type likeProg struct {
	src  string // the pattern compiled, as given
	kind likeKind
	lit  string // the lowered text, escapes resolved; without its outer % unless likeGeneral
	wild string // likeGeneral: '%' or '_' at each byte of lit that is that wildcard
}

func (lp *likeProg) compiled(pat string) *likeProg {
	if lp.src != pat {
		*lp = compileLike(pat)
	}
	return lp
}

func compileLike(pat string) likeProg {
	lp := likeProg{src: pat}
	// Without an escape the lowered pattern is its own text and its own
	// wildcard marks; with one, both are written out.
	lit := strings.ToLower(pat)
	wild := lit
	if strings.IndexByte(lit, '\\') >= 0 {
		text, marks := make([]byte, 0, len(lit)), make([]byte, 0, len(lit))
		for i := 0; i < len(lit); i++ {
			c, mark := lit[i], byte(0)
			switch {
			case c == '\\' && i+1 < len(lit):
				i++
				c = lit[i]
			case c == '%' || c == '_':
				mark = c
			}
			text, marks = append(text, c), append(marks, mark)
		}
		lit, wild = string(text), string(marks)
	}
	head, tail := 0, len(wild)
	for head < tail && wild[head] == '%' {
		head++
	}
	for tail > head && wild[tail-1] == '%' {
		tail--
	}
	if inner := wild[head:tail]; strings.IndexByte(inner, '%') >= 0 || strings.IndexByte(inner, '_') >= 0 {
		lp.kind, lp.lit, lp.wild = likeGeneral, lit, wild
		return lp
	}
	lp.lit = lit[head:tail]
	switch open, closed := head > 0, tail < len(wild); {
	case open && closed:
		lp.kind = likeContains
	case open:
		lp.kind = likeSuffix
	case closed:
		lp.kind = likePrefix
	}
	return lp
}

// match reports whether s matches the pattern. An ASCII subject folds byte by
// byte as it is compared; any other is lowered whole first, because multi-byte
// case mapping can change lengths.
func (lp *likeProg) match(s string) bool {
	if !isASCII(s) {
		s = strings.ToLower(s)
	}
	lit := lp.lit
	switch lp.kind {
	case likeExact:
		return len(s) == len(lit) && hasPrefixFold(s, lit)
	case likePrefix:
		return hasPrefixFold(s, lit)
	case likeSuffix:
		return len(s) >= len(lit) && hasPrefixFold(s[len(s)-len(lit):], lit)
	case likeContains:
		if lit == "" {
			return true
		}
		// Each place lit could start is found on its first byte, in both
		// cases, and tried.
		lower, upper := lit[0], lit[0]
		if 'a' <= lower && lower <= 'z' {
			upper -= 'a' - 'A'
		}
		for i, last := 0, len(s)-len(lit); i <= last; i++ {
			if i += firstOf(s[i:last+1], lower, upper); i <= last && hasPrefixFold(s[i+1:], lit[1:]) {
				return true
			}
		}
		return false
	}
	// The general matcher: greedy, with one point to come back to — the last
	// % seen, and where in s its run was last taken to end.
	wild := lp.wild
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(lit) && wild[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(lit) && wild[pi] == '_':
			si += charLen(s[si:])
			pi++
		case pi < len(lit) && lit[pi] == lowerASCII(s[si]):
			si++
			pi++
		case star >= 0:
			mark += charLen(s[mark:])
			pi, si = star+1, mark
		default:
			return false
		}
	}
	for pi < len(lit) && wild[pi] == '%' {
		pi++
	}
	return pi == len(lit)
}

// firstOf returns the index of the first byte of s that is a or b, or len(s).
// It is the substring search's scan, and a function of its own so that the
// loop sits in its first 32 bytes: the linker starts a function on a 32-byte
// boundary and no finer, so wherever firstOf lands, its loop lies within one
// 64-byte line. Inline in match, the same loop straddled a line whenever
// match started 32 bytes past one, and planner.like_scan read 0.83× or 1.18×
// of its parent as unrelated code moved match (DESIGN.md §14, *LIKE*).
//
//go:noinline
func firstOf(s string, a, b byte) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == a || c == b {
			return i
		}
	}
	return len(s)
}

// hasPrefixFold reports whether s, folded, begins with lit, which is lowered.
func hasPrefixFold(s, lit string) bool {
	if len(s) < len(lit) {
		return false
	}
	for i := 0; i < len(lit); i++ {
		if lowerASCII(s[i]) != lit[i] {
			return false
		}
	}
	return true
}

// charLen is the length in bytes of the character s begins with.
func charLen(s string) int {
	if s[0] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s)
	return n
}

func isASCII(s string) bool {
	var or byte
	for i := 0; i < len(s); i++ {
		or |= s[i]
	}
	return or < utf8.RuneSelf
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 32
	}
	return c
}
