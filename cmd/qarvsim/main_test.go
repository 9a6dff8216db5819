package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func simArgs(extra ...string) []string {
	base := []string{"-samples", "30000", "-slots", "400", "-knee", "150"}
	return append(base, extra...)
}

func TestRunProposedStabilizes(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-policy", "proposed"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "drift-plus-penalty") {
		t.Errorf("missing policy name:\n%s", s)
	}
	if !strings.Contains(s, "verdict           stabilized") {
		t.Errorf("proposed not stabilized:\n%s", s)
	}
	if !strings.Contains(s, "depth histogram") {
		t.Error("missing histogram")
	}
}

func TestRunMaxDiverges(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-policy", "max"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verdict           diverging") {
		t.Errorf("max-depth not diverging:\n%s", out.String())
	}
}

func TestRunFixedPolicy(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-policy", "fixed:7"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fixed-depth(7)") {
		t.Error("fixed policy not applied")
	}
}

func TestRunChartFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-policy", "min", "-chart"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Queue backlog") ||
		!strings.Contains(out.String(), "Control action") {
		t.Error("charts missing")
	}
}

func TestRunVOverride(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-policy", "proposed", "-v", "123456"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "123456") {
		t.Error("V override not reported")
	}
}

func TestRunMultiDeviceAllocator(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-devices", "3", "-alloc", "maxweight"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "allocator         max-weight") {
		t.Errorf("allocator not reported:\n%s", s)
	}
	if !strings.Contains(s, "devices           3") {
		t.Errorf("device count not reported:\n%s", s)
	}
	if !strings.Contains(s, "mean sojourn") {
		t.Errorf("per-device frame accounting missing:\n%s", s)
	}
}

func TestRunMultiDeviceChart(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-devices", "2", "-chart"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Per-device queue backlog") ||
		!strings.Contains(s, "device 1") {
		t.Errorf("per-device chart missing:\n%s", s)
	}
}

func TestRunMultiDeviceDefaultAllocator(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-devices", "2"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "allocator         equal-split") {
		t.Errorf("default allocator not equal-split:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), simArgs("-policy", "alchemy"), &bytes.Buffer{}); err == nil {
		t.Error("unknown policy must error")
	}
	if err := run(context.Background(), simArgs("-policy", "fixed:x"), &bytes.Buffer{}); err == nil {
		t.Error("bad fixed depth must error")
	}
	if err := run(context.Background(), []string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag must error")
	}
	if err := run(context.Background(), simArgs("-alloc", "maxweight"), &bytes.Buffer{}); err == nil {
		t.Error("-alloc without -devices must error")
	}
	if err := run(context.Background(), simArgs("-devices", "2", "-alloc", "fifo"), &bytes.Buffer{}); err == nil {
		t.Error("unknown allocator must error")
	}
	// A horizon or V the run would not honor is an error, not a silent
	// fallback to the scenario's 800 slots or the calibrated V.
	for _, bad := range [][]string{
		{"-slots", "-5"}, {"-slots", "0"},
		{"-v", "NaN"}, {"-v", "-1"}, {"-v", "+Inf"},
		{"-devices", "2", "-v", "-1"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), simArgs(bad...), &out); err == nil {
			t.Errorf("%v accepted; printed:\n%s", bad, out.String())
		}
	}
}

// TestRunNetworkDynamics pins the stdout of every -net class byte for
// byte, on one device and on three devices sharing a max-weight split
// budget (the modulation applies to the shared budget), and rejects
// unknown classes and missing trace files. The goldens were generated
// on linux/amd64; regenerate them only for an intended change to a
// network class.
func TestRunNetworkDynamics(t *testing.T) {
	for _, net := range []string{"markov", "trace", "handoff"} {
		for _, multi := range []bool{false, true} {
			args, golden := simArgs("-net", net), "net_"+net+".golden"
			if multi {
				args, golden = append(args, "-devices", "3", "-alloc", "maxweight"), "net_"+net+"_multi.golden"
			}
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%v differs from testdata/%s:\n got:\n%s\nwant:\n%s", args, golden, out.Bytes(), want)
			}
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), append(simArgs(), "-net", "nosuch"), &out); err == nil ||
		!strings.Contains(err.Error(), "unknown network") {
		t.Errorf("bad -net accepted: %v", err)
	}
	if err := run(context.Background(), append(simArgs(), "-net", "trace:/no/such.csv"), &out); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestRunContentProfile grounds the run in a measured asset: the
// scenario must report bytes-domain units and the content line.
func TestRunContentProfile(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "6000", "-slots", "200", "-knee", "100",
		"-content", "loot",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "content           loot") {
		t.Errorf("missing content line:\n%s", s)
	}
	if !strings.Contains(s, "bytes/slot") {
		t.Errorf("service rate not in bytes domain:\n%s", s)
	}
	if err := run(context.Background(), []string{"-content", "no-such-asset"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown content asset accepted")
	}
}

// TestRunContentMultiDevice: -content composes with -devices (the
// shared edge budget is split in the bytes domain).
func TestRunContentMultiDevice(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "6000", "-slots", "200", "-knee", "100",
		"-content", "loot", "-devices", "2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "edge budget") || !strings.Contains(out.String(), "bytes/slot") {
		t.Errorf("multi-device content run missing bytes-domain budget:\n%s", out.String())
	}
}

func TestRunLearnedAllocator(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-devices", "3", "-alloc", "bandit:4"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "allocator         bandit:4") {
		t.Errorf("bandit allocator not reported:\n%s", out.String())
	}
	out.Reset()
	if err := run(context.Background(), simArgs("-devices", "3", "-alloc", "gradient:0.3"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "allocator         gradient:0.3") {
		t.Errorf("gradient allocator not reported:\n%s", out.String())
	}
}

func TestRunLearnedPolicyForms(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), simArgs("-policy", "predictive-delayed:6"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "delayed:6(predictive:6(") {
		t.Errorf("composed learning policy not reported:\n%s", s)
	}
	// Unknown-name errors enumerate the shared grammar.
	err := run(context.Background(), simArgs("-policy", "clairvoyant"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "predictive[:H]") {
		t.Errorf("policy error %v does not enumerate the grammar", err)
	}
	err = run(context.Background(), simArgs("-devices", "2", "-alloc", "fifo"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "bandit[:ARMS]") {
		t.Errorf("alloc error %v does not enumerate the grammar", err)
	}
}
