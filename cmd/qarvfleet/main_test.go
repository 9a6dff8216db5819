package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"qarv"
	"qarv/internal/experiments"
	"qarv/internal/octree"
	"qarv/internal/synthetic"
)

// fleetArgs keeps the scenario calibration and the fleet tiny so CLI
// tests stay fast.
func fleetArgs(extra ...string) []string {
	base := []string{"-samples", "30000", "-n", "64", "-slots", "200"}
	return append(base, extra...)
}

func TestRunDefaultMix(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), fleetArgs(), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"seats             64",
		"device-slots      12800",
		"device-slots/sec",
		"proposed", "noisy", "bursty",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRunJSONReport(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(),
		fleetArgs("-json", "-mix", "proposed:1", "-churn", "0.01"), &out); err != nil {
		t.Fatal(err)
	}
	var rep qarv.FleetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a FleetReport: %v\n%s", err, out.String())
	}
	if rep.Seats != 64 || rep.Total.DeviceSlots != 64*200 {
		t.Errorf("report shape wrong: seats=%d device-slots=%d", rep.Seats, rep.Total.DeviceSlots)
	}
	if rep.Total.Sessions <= 64 {
		t.Errorf("churn produced no replacements: %d sessions", rep.Total.Sessions)
	}
	if rep.DeviceSlotsPerSec <= 0 {
		t.Error("missing device-slots/sec")
	}
	if len(rep.PerProfile) != 1 || rep.PerProfile[0].Name != "proposed" {
		t.Errorf("per-profile breakdown wrong: %+v", rep.PerProfile)
	}
}

func TestRunEveryProfileName(t *testing.T) {
	var out bytes.Buffer
	mix := "proposed:2,lowv:1,highv:1,max:0.5,min:0.5,threshold:1,random:1,poisson:1,bursty:1,noisy:1,offload:1," +
		"oracle:1,delayed:1,predictive:1,predictive-delayed:1"
	if err := run(context.Background(),
		fleetArgs("-json", "-n", "40", "-mix", mix), &out); err != nil {
		t.Fatal(err)
	}
	var rep qarv.FleetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// Weighted draws over 40 seats won't hit every class; the run
	// proving every name builds and executes is the point.
	if len(rep.PerProfile) < 5 {
		t.Errorf("only %d profiles materialized", len(rep.PerProfile))
	}
}

func TestRunRejectsBadMix(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), fleetArgs("-mix", "nosuch:1"), &out); err == nil ||
		!strings.Contains(err.Error(), "unknown profile") {
		t.Errorf("bad mix accepted: %v", err)
	}
	if err := run(context.Background(), fleetArgs("-mix", "proposed:x"), &out); err == nil ||
		!strings.Contains(err.Error(), "bad weight") {
		t.Errorf("bad weight accepted: %v", err)
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, fleetArgs(), &out); err == nil {
		t.Fatal("canceled context did not abort the run")
	}
}

func TestRunNetworkMix(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(),
		fleetArgs("-json", "-mix", "proposed:1,noisy:1",
			"-net", "static:0.4,markov:0.3,trace:0.2,handoff:0.1"), &out); err != nil {
		t.Fatal(err)
	}
	var rep qarv.FleetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// 2 policy classes × 4 network classes = 8 device classes offered;
	// static keeps the bare profile name, the rest are suffixed.
	names := map[string]bool{}
	for _, p := range rep.PerProfile {
		names[p.Name] = true
	}
	for _, want := range []string{"proposed", "proposed+markov", "noisy+handoff"} {
		if !names[want] {
			t.Errorf("missing crossed class %q in %v", want, names)
		}
	}
	if rep.Total.DeviceSlots != 64*200 {
		t.Errorf("device-slots = %d", rep.Total.DeviceSlots)
	}
}

// TestRunNetworkMixGolden pins the JSON report of a fleet crossed with
// every -net class byte for byte, with the wall-clock fields masked.
// The shard count is fixed, since float means regroup across shard
// counts. The golden was generated on linux/amd64; regenerate it only
// for an intended change to a network class.
func TestRunNetworkMixGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(),
		fleetArgs("-json", "-shards", "2", "-net", "static:1,markov:1,trace:1,handoff:1"), &out); err != nil {
		t.Fatal(err)
	}
	got := wallClock.ReplaceAll(out.Bytes(), []byte("$1: 0"))
	want, err := os.ReadFile(filepath.Join("testdata", "net_mix.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-net mix report differs from testdata/net_mix.golden:\n got:\n%s", got)
	}
}

// wallClock matches the report's wall-clock fields and their values.
var wallClock = regexp.MustCompile(`("elapsed_ns"|"device_slots_per_sec"): [^,\n]+`)

func TestRunNetworkMixDeterministicAcrossShards(t *testing.T) {
	run1 := func(shards string) string {
		var out bytes.Buffer
		if err := run(context.Background(),
			fleetArgs("-json", "-shards", shards, "-churn", "0.005",
				"-net", "static:1,markov:1,handoff:1"), &out); err != nil {
			t.Fatal(err)
		}
		var rep map[string]any
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		// Drop the wall-clock and execution-detail fields, plus the
		// float-sum-backed fields ("mean", "dropped_work") that the
		// engine only guarantees up to FP association order across shard
		// counts — the scenario's calibrated rates are fractional, so
		// shard regrouping can move their last bits (see the
		// internal/fleet package comment). Everything else — counters,
		// sketch quantiles, min/max, verdicts — must be byte-identical.
		delete(rep, "elapsed_ns")
		delete(rep, "device_slots_per_sec")
		delete(rep, "shards")
		var scrub func(v any)
		scrub = func(v any) {
			switch x := v.(type) {
			case map[string]any:
				delete(x, "mean")
				delete(x, "dropped_work")
				for _, child := range x {
					scrub(child)
				}
			case []any:
				for _, child := range x {
					scrub(child)
				}
			}
		}
		scrub(rep)
		norm, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(norm)
	}
	if a, b := run1("1"), run1("4"); a != b {
		t.Error("-net fleet differs across shard counts")
	}
}

func TestRunNetworkTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.csv"
	if err := os.WriteFile(path, []byte("# factors\n0,1\n50,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(),
		fleetArgs("-json", "-mix", "proposed:1", "-net", "trace:"+path), &out); err != nil {
		t.Fatal(err)
	}
	var rep qarv.FleetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.PerProfile) != 1 || rep.PerProfile[0].Name != "proposed+trace" {
		t.Errorf("per-profile: %+v", rep.PerProfile)
	}
}

func TestRunRejectsBadNet(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), fleetArgs("-net", "nosuch"), &out); err == nil ||
		!strings.Contains(err.Error(), "unknown network class") {
		t.Errorf("bad net accepted: %v", err)
	}
	if err := run(context.Background(), fleetArgs("-net", "trace:/no/such/file.csv"), &out); err == nil {
		t.Error("missing trace file accepted")
	}
	// Positional parsing: a second numeric part is malformed for
	// non-trace classes, and trailing garbage is rejected rather than
	// silently reinterpreted.
	if err := run(context.Background(), fleetArgs("-net", "markov:2:3"), &out); err == nil ||
		!strings.Contains(err.Error(), "net entry") {
		t.Errorf("markov:2:3 accepted: %v", err)
	}
	if err := run(context.Background(), fleetArgs("-net", "markov:x"), &out); err == nil ||
		!strings.Contains(err.Error(), "bad weight") {
		t.Errorf("markov:x accepted: %v", err)
	}
	if err := run(context.Background(), fleetArgs("-net", "trace:file.csv:x"), &out); err == nil ||
		!strings.Contains(err.Error(), "bad weight") {
		t.Errorf("trace:file.csv:x accepted: %v", err)
	}
}

func TestParseNetMixForms(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.csv"
	if err := os.WriteFile(path, []byte("0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	classes, err := parseNetMix("static, markov:2, trace:" + path + ":0.5, handoff")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 4 {
		t.Fatalf("classes: %d", len(classes))
	}
	if classes[1].weight != 2 || classes[2].weight != 0.5 || classes[3].weight != 1 {
		t.Errorf("weights: %v %v %v", classes[1].weight, classes[2].weight, classes[3].weight)
	}
	// The ambiguous numeric form is a weight, as documented.
	classes, err = parseNetMix("trace:7")
	if err != nil {
		t.Fatal(err)
	}
	if classes[0].weight != 7 {
		t.Errorf("trace:7 weight = %v, want 7 (built-in trace)", classes[0].weight)
	}
}

// TestRunContentClasses: -content splits the fleet across measured
// assets, each class calibrated over its own byte/PSNR ladders.
func TestRunContentClasses(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "6000", "-n", "32", "-slots", "100",
		"-content", "loot:0.5,soldier:0.5", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep qarv.FleetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a FleetReport: %v\n%s", err, out.String())
	}
	if len(rep.PerProfile) != 2 {
		t.Fatalf("per-profile classes %d, want 2", len(rep.PerProfile))
	}
	names := rep.PerProfile[0].Name + "," + rep.PerProfile[1].Name
	if !strings.Contains(names, "loot") || !strings.Contains(names, "soldier") {
		t.Errorf("content class names %q, want loot and soldier", names)
	}
}

// TestRunContentRejections: -content conflicts with an explicit -mix and
// rejects unknown assets.
func TestRunContentRejections(t *testing.T) {
	if err := run(context.Background(), fleetArgs("-content", "loot", "-mix", "proposed:1"), &bytes.Buffer{}); err == nil {
		t.Error("-content with explicit -mix accepted")
	}
	if err := run(context.Background(), fleetArgs("-content", "no-such-asset"), &bytes.Buffer{}); err == nil {
		t.Error("unknown content asset accepted")
	}
	if err := run(context.Background(), fleetArgs("-content", "loot:x"), &bytes.Buffer{}); err == nil {
		t.Error("bad content weight accepted")
	}
}

// TestRunTelemetrySmoke is the CI telemetry smoke: one fleet run with
// -metrics/-trace writing to files must produce a parseable metric
// snapshot and Chrome trace_event document, and the report bytes on
// stdout must be identical with telemetry on or off (wall-clock fields
// scrubbed — they differ run to run regardless of telemetry).
func TestRunTelemetrySmoke(t *testing.T) {
	runJSON := func(extra ...string) string {
		var out bytes.Buffer
		if err := run(context.Background(),
			fleetArgs(append([]string{"-json", "-churn", "0.005"}, extra...)...), &out); err != nil {
			t.Fatal(err)
		}
		var rep map[string]any
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report does not parse: %v", err)
		}
		delete(rep, "elapsed_ns")
		delete(rep, "device_slots_per_sec")
		norm, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(norm)
	}

	dir := t.TempDir()
	metricsPath := dir + "/metrics.json"
	tracePath := dir + "/trace.json"
	off := runJSON()
	on := runJSON("-metrics", metricsPath, "-trace", tracePath)
	if off != on {
		t.Errorf("telemetry changed the report:\noff: %s\non:  %s", off, on)
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metric snapshot does not parse: %v", err)
	}
	sessions := int64(0)
	for _, c := range snap.Counters {
		if c.Name == "fleet_sessions_total" {
			sessions = c.Value
		}
	}
	if sessions < 64 {
		t.Errorf("fleet_sessions_total = %d, want >= 64", sessions)
	}

	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Name  string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace_event document does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace_event document is empty")
	}
	for _, ev := range trace.TraceEvents {
		if ev.Phase == "" || ev.Name == "" {
			t.Fatalf("malformed trace event: %+v", ev)
		}
	}
}

// TestOffloadProfileDepthOrder: the offload class's uplink bandwidth
// sits between the two deepest depths whatever order the scenario
// lists its depths in. A deepest-first list used to pick the deepest
// depth as its own runner-up and fail calibration.
func TestOffloadProfileDepthOrder(t *testing.T) {
	rate := func(depths []int) float64 {
		t.Helper()
		scn, err := qarv.NewScenario(qarv.ScenarioParams{Samples: 30_000, Depths: depths})
		if err != nil {
			t.Fatal(err)
		}
		p, err := buildProfile(scn, "offload", 1)
		if err != nil {
			t.Fatalf("depths %v: %v", depths, err)
		}
		return p.NewService(nil).Service(0)
	}
	asc, desc := rate([]int{5, 6, 7, 8, 9, 10}), rate([]int{10, 9, 8, 7, 6, 5})
	if asc != desc {
		t.Errorf("bandwidth depends on depth order: ascending %v, descending %v", asc, desc)
	}
}

// TestOffloadClassUsesMeasuredStreamBytes: the offload class prices
// each depth at the capture's measured stream size (geometry and
// colors) and serves at the bandwidth Offload calibrates for the same
// scenario parameters, so fleet and single-run offload share one
// byte-domain calibration.
func TestOffloadClassUsesMeasuredStreamBytes(t *testing.T) {
	scn, err := qarv.NewScenario(qarv.ScenarioParams{Samples: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := buildProfile(scn, "offload", 1)
	if err != nil {
		t.Fatal(err)
	}

	sp := scn.Params
	ch, err := synthetic.ByName(sp.Character)
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character: ch, SamplesTarget: sp.Samples, CaptureDepth: sp.CaptureDepth, Seed: sp.Seed,
	}, synthetic.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := octree.Build(cloud, sp.CaptureDepth)
	if err != nil {
		t.Fatal(err)
	}
	streamBytes, err := tree.StreamSizeProfile(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sp.Depths {
		if got, want := prof.Cost.FrameCost(d), float64(streamBytes[d]); got != want {
			t.Errorf("depth %d: offload class costs %v bytes, the stream measures %v", d, got, want)
		}
	}

	res, err := experiments.Offload(experiments.OffloadParams{ScenarioParams: sp})
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.NewService(nil).Service(0); got != res.Bandwidth {
		t.Errorf("offload class serves %v bytes/slot, Offload calibrates %v", got, res.Bandwidth)
	}
}

// BenchmarkDefaultMix runs the default -mix over a 60k-sample scenario:
// 5k seats × 600 slots with churn 0.001 on one shard, the fleet-mix
// benchmark workload's per-slot work at a quarter of its seats and
// without its parallelism. One operation is one fleet run; profile it
// with -bench DefaultMix -cpuprofile.
func BenchmarkDefaultMix(b *testing.B) {
	scn, err := qarv.NewScenario(qarv.ScenarioParams{Samples: 60_000, ServiceFraction: 0.6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	profiles, err := parseMix(scn, defaultMix)
	if err != nil {
		b.Fatal(err)
	}
	fl, err := qarv.NewFleet(qarv.FleetSpec{
		Sessions: 5_000, Slots: 600, Shards: 1, Churn: 0.001, Seed: 1,
		Accuracy: 0.01, Profiles: profiles,
	})
	if err != nil {
		b.Fatal(err)
	}
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fl.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rate = rep.DeviceSlotsPerSec
	}
	b.ReportMetric(rate, "device-slots/sec")
}
