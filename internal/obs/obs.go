// Package obs is the telemetry layer: a mergeable metric Registry
// (counters, gauges, sketch-backed histograms) and a fixed-size flight
// recorder of slot-timestamped span/event records.
//
// Both halves respect the tree's determinism contract. Instruments are
// order-insensitive — counters add integers, gauges merge by max, and
// histograms accumulate into bucket counts of a stats.QuantileSketch —
// so a Registry reaches the same final state no matter how observations
// are interleaved or how work is split across fleet shards and sweep
// workers. Snapshot then emits everything in sorted name order, making
// the serialized snapshot byte-identical per seed at any shard or
// worker count. Histogram snapshots deliberately expose only
// count/min/max/quantiles — never sum or mean, whose floating-point
// accumulation would depend on grouping and break that guarantee.
//
// Everything is nil-safe: methods on a nil Registry, Counter, Gauge,
// Histogram, or FlightRecorder are no-ops, so instrumented hot paths
// pay only a nil check when telemetry is disabled.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qarv/internal/stats"
)

// Counter is a monotone integer metric. Adds are exact, so counters
// merge losslessly and independently of observation order.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric whose merged value is the maximum
// observed across all merged registries. Max is commutative and
// associative, so gauges — like every obs instrument — reach the same
// merged value regardless of shard count or merge order. Use gauges
// for high-water marks and configuration echoes, not running sums.
type Gauge struct {
	mu  sync.Mutex
	set bool
	v   float64
}

// Record folds v into the gauge, keeping the maximum. No-op on a nil
// receiver.
func (g *Gauge) Record(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.v {
		g.set, g.v = true, v
	}
	g.mu.Unlock()
}

// Value returns the current maximum (zero if never recorded or on a
// nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a distribution metric backed by a mergeable
// stats.QuantileSketch. Observations land in exponential buckets whose
// integer counts merge exactly, so quantiles, count, min, and max are
// identical however the observation stream was partitioned. Like the
// sketch, histograms cover non-negative values: negatives are clamped
// to zero and NaN is ignored.
type Histogram struct {
	mu sync.Mutex
	sk *stats.QuantileSketch
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sk.Add(v)
	h.mu.Unlock()
}

// Registry holds a process- or shard-local set of named instruments.
// Instrument lookup is get-or-create; handles returned by Counter,
// Gauge, and Histogram may be cached and used from multiple
// goroutines. The zero registry is not usable — construct with
// NewRegistry — but a nil *Registry is: every method no-ops, which is
// the disabled-telemetry fast path.
type Registry struct {
	mu       sync.Mutex
	accuracy float64
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry whose histograms use
// stats.DefaultSketchAccuracy.
func NewRegistry() *Registry {
	return NewRegistryAccuracy(stats.DefaultSketchAccuracy)
}

// NewRegistryAccuracy returns an empty registry whose histograms use
// the given relative sketch accuracy (clamped by the sketch itself).
func NewRegistryAccuracy(accuracy float64) *Registry {
	return &Registry{
		accuracy: accuracy,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Accuracy returns the relative accuracy histograms are built with;
// zero on a nil receiver.
func (r *Registry) Accuracy() float64 {
	if r == nil {
		return 0
	}
	return r.accuracy
}

// Counter returns the counter registered under name, creating it on
// first use. Nil on a nil receiver (and the nil Counter is itself a
// no-op, so callers need not re-check).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil on a nil receiver.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use. Nil on a nil receiver.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{sk: stats.NewQuantileSketch(r.accuracy)}
		r.hists[name] = h
	}
	return h
}

// Merge folds every instrument of o into r, losslessly: counters add,
// gauges keep the max, histograms merge their sketches bucket by
// bucket. Merge is commutative and associative in the resulting
// snapshot, so shards and cells may be merged in any grouping.
// Instruments absent on one side are created on the other. Merging a
// nil o (or into a nil r) is a no-op. Histogram merges require both
// registries to use the same sketch accuracy; a mismatch returns an
// error wrapping stats.ErrSketchMismatch.
func (r *Registry) Merge(o *Registry) error {
	if r == nil || o == nil {
		return nil
	}
	// Snapshot o's instrument tables under its lock, then fold into r.
	// Names are walked in sorted order so any error is deterministic.
	o.mu.Lock()
	counters := make(map[string]*Counter, len(o.counters))
	for k, v := range o.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(o.gauges))
	for k, v := range o.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(o.hists))
	for k, v := range o.hists {
		hists[k] = v
	}
	o.mu.Unlock()
	for _, name := range sortedKeys(counters) {
		r.Counter(name).Add(counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		g.mu.Lock()
		set, v := g.set, g.v
		g.mu.Unlock()
		if set {
			r.Gauge(name).Record(v)
		}
	}
	for _, name := range sortedKeys(hists) {
		src := hists[name]
		dst := r.Histogram(name)
		src.mu.Lock()
		dst.mu.Lock()
		err := dst.sk.Merge(src.sk)
		dst.mu.Unlock()
		src.mu.Unlock()
		if err != nil {
			return fmt.Errorf("obs: merge histogram %q: %w", name, err)
		}
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
