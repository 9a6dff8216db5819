package names

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qarv"
)

// TestNetwork pins the -net class table: each class resolves to its
// preset factor, the stochastic classes draw exactly one stream, the
// trace class draws none, and a trace file is loaded once and shared.
func TestNetwork(t *testing.T) {
	for _, token := range []string{"", "static"} {
		if f, err := Network(token); err != nil || f != nil {
			t.Errorf("%q: factory %v, err %v; want the nil static factory", token, f, err)
		}
	}
	path := filepath.Join(t.TempDir(), "f.csv")
	if err := os.WriteFile(path, []byte("0,2000\n10,500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		token, name string
		draws       int
	}{
		{"markov", "markov-bw", 1},
		{"trace", "trace-bw", 0},
		{"trace:" + path, "trace-bw", 0},
		{"handoff", "handoff", 1},
	}
	for _, tc := range cases {
		newFactor, err := Network(tc.token)
		if err != nil {
			t.Fatalf("%s: %v", tc.token, err)
		}
		draws := 0
		rng := func() *qarv.RNG { draws++; return qarv.NewRNG(1) }
		a, b := newFactor(rng), newFactor(rng)
		if a.Name() != tc.name {
			t.Errorf("%s: factor %q, want %q", tc.token, a.Name(), tc.name)
		}
		if draws != 2*tc.draws {
			t.Errorf("%s: %d streams drawn for two factors, want %d", tc.token, draws, 2*tc.draws)
		}
		if stochastic := tc.draws > 0; stochastic == (a == b) {
			t.Errorf("%s: factors shared = %v, want %v", tc.token, a == b, !stochastic)
		}
	}
	if f, _ := Network("trace:" + path); f(nil).Service(10) != 0.25 {
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
