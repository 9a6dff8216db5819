package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
	for i := int64(0); i < 10; i++ {
		r.Event(i, "sim", "tick", 0, float64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	recs := r.Records()
	for i, rec := range recs {
		if want := int64(6 + i); rec.Slot != want {
			t.Fatalf("record %d slot = %d, want %d (oldest evicted first)", i, rec.Slot, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("reset did not empty the ring")
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	if got := NewFlightRecorder(0).Cap(); got != DefaultRecorderCapacity {
		t.Fatalf("default cap = %d, want %d", got, DefaultRecorderCapacity)
	}
}

// TestRecorderOrderAndMerge: records that several writers append to one
// shared recorder, each out of slot order, come back merged into one
// timeline.
func TestRecorderOrderAndMerge(t *testing.T) {
	a := NewFlightRecorder(16)
	a.Event(5, "sim", "drop", 1, 1)
	a.Event(2, "netem", "rate", 0, 8e6)
	a.Span(2, 3, "sim", "slot", 0, 0.5)
	a.Event(9, "alloc", "share", 2, 0.25)
	recs := a.Records()
	if len(recs) != 4 {
		t.Fatalf("len = %d, want 4", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Slot < recs[i-1].Slot {
			t.Fatalf("records out of slot order: %+v", recs)
		}
	}
	if recs[0].Slot != 2 || recs[len(recs)-1].Slot != 9 {
		t.Fatalf("unexpected order: %+v", recs)
	}
}

// TestRecorderWriteTrace checks the Chrome trace_event export parses
// and carries well-formed events: complete ("X") spans with durations
// and thread-scoped instants ("i").
func TestRecorderWriteTrace(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Span(2, 3, "sim", "slot", 4, 0.5)
	r.Event(7, "netem", "rate", 1, 4e6)
	var b bytes.Buffer
	if err := r.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Cat   string `json:"cat"`
			Phase string `json:"ph"`
			TS    int64  `json:"ts"`
			Dur   int64  `json:"dur"`
			TID   int64  `json:"tid"`
			Scope string `json:"s"`
			Args  struct {
				Value float64 `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &tf); err != nil {
		t.Fatalf("trace_event JSON does not parse: %v", err)
	}
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(tf.TraceEvents))
	}
	span := tf.TraceEvents[0]
	if span.Phase != "X" || span.TS != 2*TraceSlotMicros || span.Dur != 3*TraceSlotMicros || span.TID != 4 {
		t.Fatalf("bad span event: %+v", span)
	}
	inst := tf.TraceEvents[1]
	if inst.Phase != "i" || inst.Scope != "t" || inst.Args.Value != 4e6 {
		t.Fatalf("bad instant event: %+v", inst)
	}
}

func TestHandlerServesProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("stream_bytes_total").Add(123)
	srv := httptest.NewServer(NewDebugMux(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "stream_bytes_total 123") {
		t.Fatalf("exposition missing counter:\n%s", b.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	// The pprof index must be wired on the same mux.
	resp2, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
}
