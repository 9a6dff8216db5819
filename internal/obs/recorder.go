package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Record is one flight-recorder entry: an instant event (Dur 0) or a
// span (Dur > 0) on a logical track, timestamped in virtual slot time.
// Wall-clock-side recorders (the stream server) reuse Slot as
// microseconds since server start; everything simulation-side records
// real slot indices.
type Record struct {
	// Slot is the virtual timestamp: the slot index at which the event
	// occurred or the span began.
	Slot int64 `json:"slot"`
	// Dur is the span length in slots; zero marks an instant event.
	Dur int64 `json:"dur,omitempty"`
	// Cat groups records for timeline filtering ("sim", "alloc",
	// "netem", "content", "fleet", "stream").
	Cat string `json:"cat"`
	// Name identifies the event within its category.
	Name string `json:"name"`
	// Track is the logical timeline the record belongs to: a device
	// index, fleet seat, sweep cell, or stream connection id.
	Track int64 `json:"track"`
	// Value carries one numeric payload (backlog, share, rate, bytes —
	// whatever the event measures).
	Value float64 `json:"value"`
	// seq orders records that share a slot, in arrival order.
	seq uint64
}

// DefaultRecorderCapacity is the ring size NewFlightRecorder uses when
// given a non-positive capacity.
const DefaultRecorderCapacity = 8192

// FlightRecorder is a fixed-size ring of Records: always-on, bounded
// telemetry that keeps the most recent entries and silently drops the
// oldest, like an aircraft flight recorder. It is safe for concurrent
// use, and a nil *FlightRecorder no-ops on every method, so call sites
// guard hot paths with a single nil check.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []Record
	next uint64 // total records ever added; ring index is next % len(ring)
}

// NewFlightRecorder returns a recorder keeping the last capacity
// records (DefaultRecorderCapacity when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &FlightRecorder{ring: make([]Record, 0, capacity)}
}

// Event records an instant event at the given slot. No-op on a nil
// receiver.
func (r *FlightRecorder) Event(slot int64, cat, name string, track int64, value float64) {
	r.add(Record{Slot: slot, Cat: cat, Name: name, Track: track, Value: value})
}

// Span records a span of dur slots beginning at slot. No-op on a nil
// receiver.
func (r *FlightRecorder) Span(slot, dur int64, cat, name string, track int64, value float64) {
	r.add(Record{Slot: slot, Dur: dur, Cat: cat, Name: name, Track: track, Value: value})
}

// add appends one record to the ring, evicting the oldest when full.
func (r *FlightRecorder) add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rec.seq = r.next
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next%uint64(cap(r.ring))] = rec
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of records currently held (at most Cap);
// zero on a nil receiver.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Cap returns the ring capacity; zero on a nil receiver.
func (r *FlightRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.ring)
}

// Dropped returns how many records have been evicted by the ring so
// far; zero on a nil receiver.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - uint64(len(r.ring))
}

// Records returns the held records ordered by (Slot, Track, seq) —
// timeline order with arrival order breaking ties. The slice is a
// copy. Nil on a nil receiver.
func (r *FlightRecorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Record(nil), r.ring...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		if out[i].Track != out[j].Track {
			return out[i].Track < out[j].Track
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// Reset empties the ring. No-op on a nil receiver.
func (r *FlightRecorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring = r.ring[:0]
	r.next = 0
	r.mu.Unlock()
}

// traceEvent is one entry of the Chrome trace_event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace_event container object.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// TraceSlotMicros is the trace_event timebase: each virtual slot maps
// to this many microseconds on the Chrome trace timeline, so slot k
// renders at k milliseconds.
const TraceSlotMicros = 1000

// WriteTrace writes the held records as a Chrome trace_event JSON
// file loadable in chrome://tracing or Perfetto. Spans become complete
// ("X") events, instant records become thread-scoped instant ("i")
// events; slots map to milliseconds (TraceSlotMicros) and tracks map
// to thread ids under a single process.
func (r *FlightRecorder) WriteTrace(w io.Writer) error {
	recs := r.Records()
	tf := traceFile{TraceEvents: make([]traceEvent, 0, len(recs)), DisplayTimeUnit: "ms"}
	for _, rec := range recs {
		ev := traceEvent{
			Name: rec.Name,
			Cat:  rec.Cat,
			TS:   rec.Slot * TraceSlotMicros,
			PID:  0,
			TID:  rec.Track,
			Args: map[string]any{"value": rec.Value},
		}
		if rec.Dur > 0 {
			ev.Phase = "X"
			ev.Dur = rec.Dur * TraceSlotMicros
		} else {
			ev.Phase = "i"
			ev.Scope = "t"
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(tf); err != nil {
		return fmt.Errorf("obs: encode trace: %w", err)
	}
	return nil
}
