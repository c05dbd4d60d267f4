package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// InjectNondeterminism, when set, salts every determinism-check encoding
// with a draw from the global math/rand stream — exactly the class of bug
// the checker exists to catch (state outside the run's seeded Env leaking
// into results). The bench CLI's -determinism-inject flag sets it to prove,
// end to end, that the checker fails when it should; nothing else may
// enable it.
var InjectNondeterminism bool

// CheckDeterminism executes run twice and byte-compares the canonical
// indented-JSON encodings of the two results. Any difference — a reordered
// map, a wall-clock timestamp, global rand state, host-scheduling leakage —
// fails with the first divergent line. The run function must construct
// everything it randomizes from its own fixed seed.
func CheckDeterminism(name string, run func() (any, error)) error {
	first, err := runEncoded(run)
	if err != nil {
		return fmt.Errorf("%s: first run: %w", name, err)
	}
	second, err := runEncoded(run)
	if err != nil {
		return fmt.Errorf("%s: second run: %w", name, err)
	}
	if bytes.Equal(first, second) {
		return nil
	}
	return fmt.Errorf("%s: two runs with one seed produced different results\n%s",
		name, firstDivergence(first, second))
}

func runEncoded(run func() (any, error)) ([]byte, error) {
	v, err := run()
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	if len(b) <= len("null") { // "{}", "[]", "null": nothing was exported to compare
		return nil, fmt.Errorf("result %T encodes to %s: two runs would compare equal whatever they did", v, b)
	}
	if InjectNondeterminism {
		//cloudrepl:allow-simrand deliberate self-test entropy: -determinism-inject must make the check fail
		b = append(b, fmt.Sprintf("\ninjected-entropy: %d", rand.Int63())...)
	}
	return b, nil
}

// firstDivergence locates the first line where the two encodings disagree,
// so a failure points at the drifting field instead of dumping two blobs.
func firstDivergence(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at JSON line %d:\n  run 1: %s\n  run 2: %s",
				i+1, strings.TrimSpace(al[i]), strings.TrimSpace(bl[i]))
		}
	}
	return fmt.Sprintf("encodings agree on the first %d lines but differ in length: %d vs %d lines",
		n, len(al), len(bl))
}
