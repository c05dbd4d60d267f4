package sqlengine

import (
	"go/build"
	"strings"
	"testing"
)

// TestEngineImportsNothingThatParks holds the package to the standard
// library. An engine has one owner at a time and takes no lock: every call on
// it is atomic on the virtual timeline only because nothing it runs can park
// the calling process and hand the baton to another that reaches the same
// engine. Parking lives in internal/sim, and every package of this module
// reaches it or may come to, so the engine imports none of them.
func TestEngineImportsNothingThatParks(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkg.Imports {
		if strings.HasPrefix(path, "cloudrepl/") {
			t.Errorf("sqlengine imports %s: an engine call could park, and an engine without a lock would be reached by two processes in one call", path)
		}
	}
}
