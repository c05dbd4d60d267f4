// Package directives exercises allow-directive handling: a used directive
// whose doc-comment scope covers a whole declaration, a stale directive, an
// unknown-analyzer typo, and a reason-less directive (which must not
// suppress anything).
package directives

import "time"

// covered's doc comment holds a well-formed directive, so both wall-clock
// calls in the body are suppressed.
//
//cloudrepl:allow-simtime fixture: the directive covers the whole declaration
func covered() {
	_ = time.Now()
	time.Sleep(time.Millisecond)
}

//cloudrepl:allow-maporder nothing in this file ranges over a map, so this directive is stale
func stale() {}

//cloudrepl:allow-nosuchanalyzer the analyzer name is a typo
func unknown() {}

//cloudrepl:allow-simtime
func noReason() {
	_ = time.Now()
}
