package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"qarv"
)

func parse(t *testing.T, args ...string) *Sinks {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s.Resolve()
	return s
}

func TestZeroValueCollectsNothing(t *testing.T) {
	s := parse(t)
	if s.Registry != nil || s.Recorder != nil {
		t.Fatal("sinks materialized without flags")
	}
	var out bytes.Buffer
	if err := s.Export(&out, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("export wrote %q with no sinks", out.String())
	}
}

func TestStdoutExport(t *testing.T) {
	s := parse(t, "-metrics", "-", "-trace", "-")
	if s.Registry == nil || s.Recorder == nil {
		t.Fatal("flags did not materialize sinks")
	}
	s.Registry.Counter("demo_total").Add(3)
	s.Recorder.Event(1, "demo", "tick", -1, 1)
	var out bytes.Buffer
	if err := s.Export(&out, &out); err != nil {
		t.Fatal(err)
	}
	// Both documents land on out: a snapshot object then a trace_event
	// object. Decode them in sequence to prove each parses.
	dec := json.NewDecoder(&out)
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("metrics document does not parse: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 3 {
		t.Fatalf("snapshot content wrong: %+v", snap)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := dec.Decode(&trace); err != nil {
		t.Fatalf("trace document does not parse: %v", err)
	}
	if len(trace.TraceEvents) != 1 {
		t.Fatalf("trace events: %d, want 1", len(trace.TraceEvents))
	}
}

func TestFileExportAndErrors(t *testing.T) {
	dir := t.TempDir()
	s := parse(t, "-metrics", dir+"/m.json", "-trace", dir+"/t.json")
	s.Registry.Gauge("demo_depth").Record(4)
	var out bytes.Buffer
	if err := s.Export(&out, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("file export leaked onto the report stream")
	}

	bad := parse(t, "-metrics", dir+"/no/such/dir/m.json")
	if err := bad.Export(&out, &out); err == nil || !strings.Contains(err.Error(), "write metrics") {
		t.Fatalf("unwritable path accepted: %v", err)
	}
}

// TestTraceOverflowWarns: a trace whose ring evicted records says so on
// errOut, naming the kept, capacity and evicted counts, while a trace
// that fits adds nothing to either stream.
func TestTraceOverflowWarns(t *testing.T) {
	dir := t.TempDir()
	s := parse(t, "-trace", dir+"/t.json")
	s.Recorder = qarv.NewFlightRecorder(4)
	for slot := int64(0); slot < 4; slot++ {
		s.Recorder.Event(slot, "demo", "tick", -1, 1)
	}
	var out, errOut bytes.Buffer
	if err := s.Export(&out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 || errOut.Len() != 0 {
		t.Fatalf("a trace that fits its ring wrote %q / %q", out.String(), errOut.String())
	}

	for slot := int64(4); slot < 10; slot++ {
		s.Recorder.Event(slot, "demo", "tick", -1, 1)
	}
	if err := s.Export(&out, &errOut); err != nil {
		t.Fatal(err)
	}
	const want = "trace: kept the newest 4 records; the ring (capacity 4) evicted 6 older ones, so the trace starts mid-run\n"
	if out.Len() != 0 || errOut.String() != want {
		t.Fatalf("overflowed trace: stdout %q, stderr %q, want stderr %q", out.String(), errOut.String(), want)
	}
}
