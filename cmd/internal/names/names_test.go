package names

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qarv"
	"qarv/internal/delay"
)

// TestNetwork pins the -net class table: each class resolves to its
// labelled preset factor, a run of a stochastic class draws exactly one
// stream, the trace class draws none, and a trace file is loaded once
// and shared by every run.
func TestNetwork(t *testing.T) {
	for _, token := range []string{"", "static"} {
		if n, err := Network(token); err != nil || n.Factor != nil || n.Name != "static" {
			t.Errorf("%q: shape %+v, err %v; want the static shape", token, n, err)
		}
	}
	path := filepath.Join(t.TempDir(), "f.csv")
	if err := os.WriteFile(path, []byte("0,2000\n10,500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		token, label, factor string
		draws                int
	}{
		{"markov", "markov", "markov-bw", 1},
		{"trace", "trace-bw", "trace-bw", 0},
		{"trace:" + path, "trace-bw", "trace-bw", 0},
		{"handoff", "handoff", "handoff", 1},
	}
	for _, tc := range cases {
		n, err := Network(tc.token)
		if err != nil {
			t.Fatalf("%s: %v", tc.token, err)
		}
		draws := 0
		rng := func() *qarv.RNG { draws++; return qarv.NewRNG(1) }
		a, b := delay.ForRun(n.Factor, rng), delay.ForRun(n.Factor, rng)
		if n.Name != tc.label || a.Name() != tc.factor {
			t.Errorf("%s: shape %q factor %q, want %q %q", tc.token, n.Name, a.Name(), tc.label, tc.factor)
		}
		if draws != 2*tc.draws {
			t.Errorf("%s: %d streams drawn for two runs, want %d", tc.token, draws, 2*tc.draws)
		}
		if stochastic := tc.draws > 0; stochastic == (a == b) {
			t.Errorf("%s: runs share a factor = %v, want %v", tc.token, a == b, !stochastic)
		}
	}
	if n, _ := Network("trace:" + path); n.Factor.Service(10) != 0.25 {
		t.Error("trace file not peak-normalized")
	}
	for _, token := range []string{"nosuch", "markov:0.5"} {
		if _, err := Network(token); err == nil || !strings.Contains(err.Error(), NetworkUsage) {
			t.Errorf("%q: err %v, want the usage list", token, err)
		}
	}
	if _, err := Network("trace:/no/such.csv"); err == nil {
		t.Error("missing trace file accepted")
	}
}
