package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"qarv"
)

// TestRunGridJSON: a 2×2 grid on the fleet backend emits a well-formed
// JSON report with one row per cell, plus a CSV table.
func TestRunGridJSON(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "sweep.csv")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "30000", "-slots", "120", "-seed", "3",
		"-axis", "v=0.5,2", "-axis", "net=static,markov:0.5",
		"-backend", "fleet", "-sessions", "6",
		"-csv", csv, "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Axes    []string `json:"axes"`
		Backend string   `json:"backend"`
		Rows    []struct {
			Cell   int `json:"cell"`
			Coords []struct {
				Axis  string `json:"axis"`
				Label string `json:"label"`
			} `json:"coords"`
			Sessions int64 `json:"sessions"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(rep.Axes) != 2 || rep.Axes[0] != "v" || rep.Axes[1] != "net" {
		t.Errorf("axes = %v", rep.Axes)
	}
	if rep.Backend != "fleet" || len(rep.Rows) != 4 {
		t.Fatalf("backend %q rows %d", rep.Backend, len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if row.Cell != i || len(row.Coords) != 2 || row.Sessions != 6 {
			t.Errorf("row %d = %+v", i, row)
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "cell,") {
		t.Errorf("csv header = %q", strings.SplitN(string(raw), "\n", 2)[0])
	}
}

// TestRunTextTable: the default output is an aligned text table headed
// by the axis names.
func TestRunTextTable(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "30000", "-slots", "120",
		"-axis", "policy=proposed,min",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "policy") || !strings.Contains(out.String(), "verdict") {
		t.Errorf("output missing table: %q", out.String())
	}
}

// TestRunContentAxis drives the content axis end-to-end through the
// CLI: a content (2 assets) × v grid must emit measured-ladder cells
// byte-identical at -workers 1 and 4 (the acceptance determinism pin at
// the outermost layer).
func TestRunContentAxis(t *testing.T) {
	sweep := func(workers string) string {
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-samples", "6000", "-slots", "100", "-seed", "5",
			"-axis", "content=loot,soldier", "-axis", "v=0.5,1",
			"-workers", workers, "-json",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	base := sweep("1")
	if got := sweep("4"); got != base {
		t.Fatal("content sweep diverged between -workers 1 and 4")
	}
	var rep struct {
		Axes []string `json:"axes"`
		Rows []struct {
			Coords []struct {
				Axis  string `json:"axis"`
				Label string `json:"label"`
			} `json:"coords"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(base), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Axes) != 2 || rep.Axes[0] != "content" || len(rep.Rows) != 4 {
		t.Fatalf("axes %v rows %d, want [content v] and 4 cells", rep.Axes, len(rep.Rows))
	}
	if rep.Rows[0].Coords[0].Label != "loot" || rep.Rows[2].Coords[0].Label != "soldier" {
		t.Errorf("content labels %q/%q, want loot/soldier",
			rep.Rows[0].Coords[0].Label, rep.Rows[2].Coords[0].Label)
	}
}

// TestRunRejectsBadInput: missing axes, malformed specs, unknown kinds
// and backends all fail with a clear error.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-axis", "v"},
		{"-axis", "nosuch=1,2"},
		{"-axis", "v=a,b"},
		{"-axis", "net=warp"},
		{"-axis", "v=1", "-backend", "nosuch"},
		{"-axis", "v=1", "-json", "-chart"},
		{"-axis", "content=no-such-asset"},
		{"-axis", "viewdist=2,4"},
		{"-axis", "viewdist=loot:x"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestRunLearnedAxes: the learned allocator and policy forms plus the
// dwell-parameterized markov shape flow through the axis grammar.
func TestRunLearnedAxes(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "30000", "-slots", "120", "-seed", "3",
		"-axis", "alloc=equal,bandit:4,gradient:0.3",
		"-axis", "net=markov:0.8:32",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"bandit:4", "gradient:0.3", "markov-v0.80-d32"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	out.Reset()
	err = run(context.Background(), []string{
		"-samples", "30000", "-slots", "120",
		"-axis", "policy=proposed,predictive-delayed:6",
		"-axis", "net=static",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "predictive-delayed:6") {
		t.Errorf("policy label missing:\n%s", out.String())
	}
	// Unknown learned forms are rejected with the grammar enumerated.
	err = run(context.Background(), []string{
		"-samples", "30000", "-axis", "alloc=bandit:x", "-axis", "net=static",
	}, &bytes.Buffer{})
	if err == nil {
		t.Error("bandit:x must error")
	}
	err = run(context.Background(), []string{
		"-samples", "30000", "-axis", "policy=precognitive", "-axis", "net=static",
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "predictive[:H]") {
		t.Errorf("policy error %v does not enumerate the grammar", err)
	}
}

// TestRunNetworkAxisGolden pins the JSON report of a net axis over
// every shape the CLI grammar names, on the pool and the fleet backend,
// byte for byte. A fleet cell shards its sessions over GOMAXPROCS and
// float means regroup across shard counts, so the test fixes it. The
// goldens were generated on linux/amd64; regenerate them only for an
// intended change to a network shape.
func TestRunNetworkAxisGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, backend := range []string{"pool", "fleet"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-samples", "30000", "-slots", "300", "-knee", "100", "-seed", "1",
			"-axis", "net=static,markov,markov:0.5,markov:0.8:64,handoff,trace",
			"-backend", backend, "-sessions", "8", "-json",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		golden := "net_" + backend + ".golden"
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s net axis differs from testdata/%s:\n got:\n%s", backend, golden, out.Bytes())
		}
	}
}

// TestBareMarkovIsNetPreset: the net axis's bare markov is the -net
// markov class of qarvsim and qarvfleet — at base b it serves b × the
// class's factor series drawn from the same stream (the ×1/×0.3
// Gilbert–Elliott preset), labelled "markov".
func TestBareMarkovIsNetPreset(t *testing.T) {
	sn, err := buildNetwork("markov")
	if err != nil {
		t.Fatal(err)
	}
	const base = 1000.0
	svc := sn.New(base, qarv.NewRNG(7))
	factor := qarv.DefaultMarkovFactor(qarv.NewRNG(7))
	levels := map[float64]bool{}
	for slot := 0; slot < 2000; slot++ {
		f := factor.Service(slot)
		levels[f] = true
		if got, want := svc.Service(slot), base*f; got != want {
			t.Fatalf("slot %d: sweep markov serves %v, -net markov %v", slot, got, want)
		}
	}
	if len(levels) != 2 || !levels[1] || !levels[0.3] {
		t.Errorf("factor levels %v, want the ×1/×0.3 preset", levels)
	}
	if sn.Name != "markov" {
		t.Errorf("label %q, want markov", sn.Name)
	}
}
