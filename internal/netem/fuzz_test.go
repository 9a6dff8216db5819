package netem

import (
	"errors"
	"strings"
	"testing"
)

// FuzzReadTraceCSV throws arbitrary text at the CSV trace loader. The
// loader must never panic; every non-error result must pass its own
// Validate (the loaders promise to reject malformed traces up front so
// nothing surfaces mid-run), and every error must be classified — a
// parse problem wraps ErrBadTrace, an empty input ErrEmptyTrace.
func FuzzReadTraceCSV(f *testing.F) {
	f.Add("0,1200\n600,800\n")
	f.Add("# drive test 3\nslot,bytes_per_slot\n0,1500.5\n10,0\n")
	f.Add("0,1\n0,2\n")                 // duplicate slot: must be rejected
	f.Add("5,-1\n")                     // negative rate
	f.Add("0,NaN\n")                    // ParseFloat accepts NaN; Validate must not
	f.Add("0 1200\n")                   // missing comma
	f.Add("slot,rate\n")                // header only: empty trace
	f.Add("")                           // empty input
	f.Add("9999999999999999999999,1\n") // slot overflows int

	f.Fuzz(func(t *testing.T, data string) {
		tb, err := ReadTraceCSV(strings.NewReader(data))
		checkTraceResult(t, tb, err)
	})
}

// FuzzReadTraceJSON does the same for the JSON form, covering both the
// bare-array and {"period":N,"points":[...]} object shapes.
func FuzzReadTraceJSON(f *testing.F) {
	f.Add(`[{"slot":0,"bytes_per_slot":1200},{"slot":600,"bytes_per_slot":800}]`)
	f.Add(`{"period":600,"points":[{"slot":0,"bytes_per_slot":1200}]}`)
	f.Add(`{"period":-1,"points":[{"slot":0,"bytes_per_slot":1}]}`)
	f.Add(`{"period":1,"points":[{"slot":5,"bytes_per_slot":1}]}`) // period inside trace
	f.Add(`[{"slot":0,"bytes_per_slot":1e999}]`)                   // rate overflows float64
	f.Add(`[]`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Add(`  [ {"slot": 3} `) // truncated after whitespace

	f.Fuzz(func(t *testing.T, data string) {
		tb, err := ReadTraceJSON(strings.NewReader(data))
		checkTraceResult(t, tb, err)
	})
}

// checkTraceResult holds the shared loader contract: success implies a
// self-consistently valid trace, failure implies a classified error.
func checkTraceResult(t *testing.T, tb *TraceBandwidth, err error) {
	t.Helper()
	if err != nil {
		if tb != nil {
			t.Fatalf("loader returned non-nil trace alongside error %v", err)
		}
		if !errors.Is(err, ErrBadTrace) && !errors.Is(err, ErrEmptyTrace) {
			t.Fatalf("unclassified loader error: %v", err)
		}
		return
	}
	if err := tb.Validate(); err != nil {
		t.Fatalf("loader accepted a trace its own Validate rejects: %v", err)
	}
	// The accepted trace must actually be usable as a process.
	if bw := tb.Service(0); bw < 0 {
		t.Fatalf("Bandwidth(0) = %v on a validated trace", bw)
	}
}
