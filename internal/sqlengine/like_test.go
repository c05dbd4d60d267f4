package sqlengine

import (
	"strings"
	"testing"
)

func TestLikeSemantics(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false}, // length mismatch without %
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"HeLLo", "hello", true}, // case-insensitive
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"hello", "%ell%", true},
		{"hello", "%%", true},
		{"hello", "%elx%", false},
		{"hello", "hell", false},
		{"hello", "ello", false},
		{"Event 12 meetup", "%12 M%", true},
		{"Event 112 meetup", "%12 m%", true},
		{"Event 121 meetup", "%12 m%", false},
		{"ab", "%abc%", false}, // text longer than the subject
		{"abab", "%ab", true},
		{"aaa", "a%a%a%a", false},

		// \ makes the next character literal.
		{"50% off", `50\% off`, true},
		{"50 off", `50\% off`, false},
		{"500 off", `50\% off`, false},
		{"a_b", `a\_b`, true},
		{"axb", `a\_b`, false},
		{`a\b`, `a\\b`, true},
		{`a\b`, `a\b`, false}, // \b is a literal b
		{"ab", `a\b`, true},
		{"save 50% today", `%50\%%`, true}, // escaped text, classified like any other
		{"save 500 today", `%50\%%`, false},
		{`tail\`, `tail\`, true}, // nothing after it to escape: a backslash
		{"100%", `%\%`, true},
		{"100", `%\%`, false},
		{"a%b_c", `a\%b\_c`, true},
		{"x_y", `%\_%`, true},
		{"xy", `%\_%`, false},
		{"a_c", `a\__`, true}, // a literal _ then any one character
		{"a_", `a\__`, false},

		// A % or _ in the subject is a character like any other.
		{"50% off", "50%", true},
		{"a%xc", "a%c", true},
		{"a_b", "a_b", true},

		// _ is one character, however many bytes.
		{"ünicode", "_nicode", true},
		{"ünicode", "__nicode", false},
		{"naïve", "na_ve", true},
		{"naïve", "na__ve", false},
		{"日本語", "___", true},
		{"日本語", "__", false},
		{"日本語", "%本_", true},
		{"ÜNICODE", "ünicode", true}, // case folds beyond ASCII
		{"ünicode", "%NICODE", true},
		{"straße", "%ß_", true},
	}
	for _, tc := range cases {
		lp := compileLike(tc.pat)
		if got := lp.match(tc.s); got != tc.want {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.pat, got, tc.want)
		}
	}
}

// TestLikeClassification pins which search each pattern shape compiles to:
// the four that need no matcher must not fall through to it.
func TestLikeClassification(t *testing.T) {
	cases := []struct {
		pat  string
		kind likeKind
		lit  string
	}{
		{"abc", likeExact, "abc"},
		{"", likeExact, ""},
		{"ABC%", likePrefix, "abc"},
		{"%abc", likeSuffix, "abc"},
		{"%abc%", likeContains, "abc"},
		{"%%abc%%", likeContains, "abc"},
		{"%", likeSuffix, ""},
		{`%50\% off%`, likeContains, "50% off"},
		{`\%abc`, likeExact, "%abc"},
		{`abc\%`, likeExact, "abc%"},
		{"a%c", likeGeneral, "a%c"},
		{"%a_c%", likeGeneral, "%a_c%"},
		{"_", likeGeneral, "_"},
		{`%a\_c_`, likeGeneral, "%a_c_"},
	}
	for _, tc := range cases {
		if lp := compileLike(tc.pat); lp.kind != tc.kind || lp.lit != tc.lit {
			t.Errorf("compileLike(%q) = kind %d lit %q, want kind %d lit %q", tc.pat, lp.kind, lp.lit, tc.kind, tc.lit)
		}
	}
	// A LIKE node starts with the zero likeProg and takes it for "" compiled.
	if compileLike("") != (likeProg{}) {
		t.Errorf("the zero likeProg is not the empty pattern's: %+v", compileLike(""))
	}
}

// TestLikeThroughSQL drives the matcher the way a statement does: a ? pattern
// that changes from run to run on one plan, a literal one, NULLs, NOT LIKE,
// non-string operands.
func TestLikeThroughSQL(t *testing.T) {
	s := newTestDB(t)
	mustExec := func(sql string, args ...Value) {
		t.Helper()
		if _, err := s.Exec(sql, args...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE notes (id BIGINT PRIMARY KEY, body VARCHAR(40), n BIGINT)")
	for i, body := range []string{"50% off", "500 off", "a_b", "axb", "ünicode", "Unicode"} {
		mustExec("INSERT INTO notes (id, body, n) VALUES (?, ?, ?)", NewInt(int64(i+1)), NewString(body), NewInt(int64(100+i)))
	}
	mustExec("INSERT INTO notes (id, body, n) VALUES (7, NULL, 7)")
	ids := func(sql string, args ...Value) string {
		t.Helper()
		set, err := s.Query(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		var b strings.Builder
		for _, r := range set.Rows {
			b.WriteString(r[0].String())
		}
		return b.String()
	}
	const byPattern = "SELECT id FROM notes WHERE body LIKE ? ORDER BY id"
	for _, tc := range []struct{ pat, want string }{
		{`50\% off`, "1"}, {"50% off", "12"}, {`a\_b`, "3"}, {"a_b", "34"}, {"_nicode", "56"}, {`%\%%`, "1"}, {"%", "123456"},
	} {
		if got := ids(byPattern, NewString(tc.pat)); got != tc.want {
			t.Errorf("body LIKE %q: ids %s, want %s", tc.pat, got, tc.want)
		}
	}
	// In a literal the lexer takes one level of backslashes first.
	if got := ids(`SELECT id FROM notes WHERE body LIKE '50\\% off'`); got != "1" {
		t.Errorf(`literal '50\\%% off': ids %s, want 1`, got)
	}
	if got := ids(byPattern, Null); got != "" {
		t.Errorf("LIKE NULL matched %s", got)
	}
	if got := ids("SELECT id FROM notes WHERE n LIKE ? ORDER BY id", NewString("10_")); got != "123456" {
		t.Errorf("a number LIKE a pattern: ids %s, want 123456", got)
	}
	if got := ids("SELECT id FROM notes WHERE body LIKE ? ORDER BY id", NewInt(500)); got != "" {
		t.Errorf("LIKE a number with no wildcard matched %s", got)
	}
}

// oracleLikeMatch is the matcher LIKE ran before patterns were compiled, kept
// word for word: it re-folds the pattern on every call, has no escape
// character, matches _ against one byte, and lets a % in the subject use up a
// % of the pattern. Wherever none of that matters it is the reference.
func oracleLikeMatch(s, pattern string) bool {
	if !isASCII(s) || !isASCII(pattern) {
		s = strings.ToLower(s)
		pattern = strings.ToLower(pattern)
	}
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || lowerASCII(pattern[pi]) == lowerASCII(s[si])):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// FuzzLike holds the compiled matcher to the old one wherever the two are
// meant to agree: ASCII on both sides (where _ is a byte either way), no
// backslash in the pattern (the old matcher had no escape) and no % in the
// subject (the old matcher let it use up the pattern's).
func FuzzLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"Event 12 meetup", "%12 m%"}, {"hello", "h_llo"}, {"hello", "%"}, {"", ""}, {"", "_"},
		{"aXbXc", "a%b%c"}, {"aaa", "a%a%a%a"}, {"abab", "%ab"}, {"HeLLo", "hEl%"}, {"a_b", "a_b"},
		{"mississippi", "%iss%ipp_"}, {"abc", "%%%"}, {"abc", "_%_"}, {"ab", "%abc%"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, pat string) {
		if !isASCII(s) || !isASCII(pat) || strings.ContainsAny(pat, `\`) || strings.ContainsAny(s, "%") {
			t.Skip()
		}
		lp := compileLike(pat)
		if got, want := lp.match(s), oracleLikeMatch(s, pat); got != want {
			t.Fatalf("%q LIKE %q: compiled (kind %d) says %v, the old matcher %v", s, pat, lp.kind, got, want)
		}
	})
}
