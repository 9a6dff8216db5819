package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{15.4, 16.8, 15.7, 16.1, 15.9}, 15.9},
	} {
		in := append([]float64(nil), tc.xs...)
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("median reordered its input: %v, was %v", tc.xs, in)
			}
		}
	}
}

func TestSpread(t *testing.T) {
	lo, hi := spread([]float64{2, -1, 7, 3})
	if lo != -1 || hi != 7 {
		t.Errorf("spread = %v–%v, want -1–7", lo, hi)
	}
	if lo, hi := spread([]float64{4}); lo != 4 || hi != 4 {
		t.Errorf("spread of one value = %v–%v, want 4–4", lo, hi)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(8.9, 15.7); math.Abs(got-0.5669) > 1e-4 {
		t.Errorf("ratio(8.9, 15.7) = %v", got)
	}
	if got := ratio(0, 0); got != 1 {
		t.Errorf("ratio(0, 0) = %v, want 1", got)
	}
	if got := ratio(2, 0); !math.IsInf(got, 1) {
		t.Errorf("ratio(2, 0) = %v, want +Inf", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		r      float64
		better string
		want   string
	}{
		{0.57, "lower", "better"},
		{0.80, "lower", "within"},
		{1.25, "lower", "within"},
		{1.26, "lower", "worse"},
		{1.30, "higher", "better"},
		{0.90, "higher", "within"},
		{0.74, "higher", "worse"},
		{math.Inf(1), "lower", "worse"},
	} {
		if got := verdict(tc.r, tc.better, 0.25); got != tc.want {
			t.Errorf("verdict(%v, %s, 0.25) = %s, want %s", tc.r, tc.better, got, tc.want)
		}
	}
}

func TestWins(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	change := []float64{9, 11, 8, 10}
	if got := wins(base, change, "lower"); got != 2 {
		t.Errorf("lower-is-better wins = %d, want 2", got)
	}
	if got := wins(base, change, "higher"); got != 1 {
		t.Errorf("higher-is-better wins = %d, want 1", got)
	}
	if got := wins(base, change[:1], "lower"); got != 1 {
		t.Errorf("wins over unequal lengths = %d, want 1", got)
	}
}

func TestParseOutput(t *testing.T) {
	out := strings.Join([]string{
		"# perfbench workload=edge-live seed=1 seconds=20 trace=0",
		`# env {"go":"go1.24.0","commit":"abc"}`,
		"# edge-live: 1200 operations timed",
		`{"correct":true,"attempted":1200,"failed":0,"metrics":{"op_p95_ms":{"value":8.9,"unit":"ms"}}}`,
		"",
	}, "\n")
	env, line := parseOutput([]byte(out))
	if string(env) != `{"go":"go1.24.0","commit":"abc"}` {
		t.Errorf("env = %s", env)
	}
	if !strings.HasPrefix(string(line), `{"correct":true`) {
		t.Errorf("result line = %s", line)
	}
	if _, line := parseOutput([]byte("# env {}\nperfbench: build failed\n")); line != nil {
		t.Errorf("a run without a result line parsed as %s", line)
	}
}

func TestRunUsage(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(nil, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("no -base: exit %d, want 2", code)
	}
	if code := run([]string{"-base", "HEAD", "-pairs", "0"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-pairs 0: exit %d, want 2", code)
	}
	if code := run([]string{"-base", "HEAD", "-seconds", "1"}, &bytes.Buffer{}, &stderr); code != 2 {
		t.Errorf("-seconds: exit %d, want 2 (runs last BENCHMARK.json's run_seconds)", code)
	}
}

func TestWorkingTree(t *testing.T) {
	headTree, err := git("rev-parse", "HEAD^{tree}")
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	tree, err := workingTree()
	if err != nil {
		t.Fatal(err)
	}
	if again, err := workingTree(); err != nil || again != tree {
		t.Fatalf("workingTree = %s, then %s (%v)", tree, again, err)
	}
	status, err := git("status", "--porcelain")
	if err != nil {
		t.Fatal(err)
	}
	// The tree differs from HEAD's exactly when git sees a change.
	if clean := status == ""; (tree == headTree) != clean {
		t.Errorf("tree %s, HEAD's %s, but status reads %q", tree, headTree, status)
	}
}
