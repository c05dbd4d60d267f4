package sqlengine

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Fatalf("NewInt: %v/%v", v.Kind(), v.Int())
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Fatalf("NewFloat: %v/%v", v.Kind(), v.Float())
	}
	if v := NewString("x"); v.Kind() != KindString || v.String() != "x" {
		t.Fatalf("NewString: %v/%v", v.Kind(), v.String())
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Fatalf("NewBool: %v/%v", v.Kind(), v.Bool())
	}
	if v := NewTime(123456); v.Kind() != KindTime || v.Micros() != 123456 {
		t.Fatalf("NewTime: %v/%v", v.Kind(), v.Micros())
	}
	if !Null.IsNull() || Null.Bool() {
		t.Fatal("Null misbehaves")
	}
}

func TestValueFloatCoercesInt(t *testing.T) {
	if f := NewInt(7).Float(); f != 7.0 {
		t.Fatalf("int→float = %v", f)
	}
}

func TestCompareNumericAcrossKinds(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewFloat(2.5), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewBool(true), NewInt(1), 0},
		{NewTime(100), NewInt(100), 0},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("10"), NewInt(9), 1}, // numeric parse of string
		{NewString("abc"), NewString("abc"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSQLRenderingEscapesQuotes(t *testing.T) {
	v := NewString("o'brien")
	if got := v.SQL(); got != "'o''brien'" {
		t.Fatalf("SQL() = %q", got)
	}
	if got := NewInt(-5).SQL(); got != "-5" {
		t.Fatalf("SQL() = %q", got)
	}
	if got := Null.SQL(); got != "NULL" {
		t.Fatalf("SQL() = %q", got)
	}
	if got := NewBool(true).SQL(); got != "TRUE" {
		t.Fatalf("SQL() = %q", got)
	}
}

func TestKeyEqualValuesShareKeys(t *testing.T) {
	if NewInt(1).hashKey() != NewFloat(1.0).hashKey() {
		t.Fatal("1 and 1.0 have different index keys")
	}
	if NewInt(1).hashKey() != NewBool(true).hashKey() {
		t.Fatal("1 and TRUE have different index keys")
	}
	if NewInt(1).hashKey() == NewString("1").hashKey() {
		t.Fatal("int 1 and string \"1\" share an index key")
	}
}

// Property: Compare is antisymmetric and consistent with Equal for random
// integer and string values.
func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64, sa, sb string) bool {
		va, vb := NewInt(a), NewInt(b)
		if Compare(va, vb) != -Compare(vb, va) {
			return false
		}
		ws, wt := NewString(sa), NewString(sb)
		if Compare(ws, wt) != -Compare(wt, ws) {
			return false
		}
		return Compare(va, va) == 0 && Compare(ws, ws) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SQL rendering of a string value always round-trips through the
// lexer as a single string token with the original content.
func TestStringSQLRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// The lexer handles ASCII input; interpolated values in this
		// codebase are ASCII identifiers and text.
		for _, r := range s {
			if r < 32 || r > 126 {
				return true
			}
		}
		if len(s) > 200 {
			return true
		}
		toks, err := lex(NewString(s).SQL())
		if err != nil {
			return false
		}
		return len(toks) == 2 && toks[0].kind == tokString && toks[0].text == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
