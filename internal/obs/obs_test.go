package obs

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/stats"
)

// observation is one synthetic telemetry action replayed into a
// registry by the property tests.
type observation struct {
	kind  int // 0 counter, 1 gauge, 2 histogram
	name  string
	value float64
}

// genObservations builds a deterministic stream of mixed instrument
// updates.
func genObservations(seed uint64, n int) []observation {
	rng := geom.NewRNG(seed)
	names := []string{"frames_total", "bytes_total", "backlog", "utility", "peak_depth", "stalls"}
	out := make([]observation, n)
	for i := range out {
		out[i] = observation{
			kind:  rng.Intn(3),
			name:  names[rng.Intn(len(names))],
			value: rng.Range(0, 1000),
		}
	}
	return out
}

// apply replays observations into a registry.
func apply(r *Registry, obs []observation) {
	for _, o := range obs {
		switch o.kind {
		case 0:
			r.Counter(o.name).Add(int64(o.value))
		case 1:
			r.Gauge(o.name).Record(o.value)
		default:
			r.Histogram(o.name).Observe(o.value)
		}
	}
}

// snapJSON renders a registry snapshot to bytes for comparison.
func snapJSON(t *testing.T, r *Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.Snapshot().EncodeJSON(&b); err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	return b.Bytes()
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not get-or-create")
	}
	g := r.Gauge("g")
	g.Record(2)
	g.Record(7)
	g.Record(5)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want max 7", got)
	}
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	hv := r.Snapshot().Histograms[0]
	if hv.Count != 100 {
		t.Fatalf("histogram count = %d, want 100", hv.Count)
	}
	if math.Abs(hv.P50-50) > 50*3*stats.DefaultSketchAccuracy+1 {
		t.Fatalf("p50 = %v, want ≈50", hv.P50)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Record(1)
	r.Histogram("x").Observe(1)
	if err := r.Merge(NewRegistry()); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if r.Accuracy() != 0 {
		t.Fatal("nil registry accuracy should be 0")
	}
	var rec *FlightRecorder
	rec.Event(1, "sim", "x", 0, 0)
	rec.Span(1, 2, "sim", "x", 0, 0)
	rec.Reset()
	if rec.Len() != 0 || rec.Cap() != 0 || rec.Dropped() != 0 || rec.Records() != nil {
		t.Fatal("nil recorder accessors should be zero")
	}
}

// TestMergeCommutative: A⊕B and B⊕A snapshot byte-identically.
func TestMergeCommutative(t *testing.T) {
	oa := genObservations(11, 500)
	ob := genObservations(22, 700)
	ab := NewRegistry()
	apply(ab, oa)
	other := NewRegistry()
	apply(other, ob)
	if err := ab.Merge(other); err != nil {
		t.Fatal(err)
	}
	ba := NewRegistry()
	apply(ba, ob)
	other2 := NewRegistry()
	apply(other2, oa)
	if err := ba.Merge(other2); err != nil {
		t.Fatal(err)
	}
	if got, want := snapJSON(t, ab), snapJSON(t, ba); !bytes.Equal(got, want) {
		t.Fatalf("merge not commutative:\nA+B: %s\nB+A: %s", got, want)
	}
}

// TestMergeAssociative: (A⊕B)⊕C and A⊕(B⊕C) snapshot byte-identically.
func TestMergeAssociative(t *testing.T) {
	streams := [][]observation{genObservations(1, 400), genObservations(2, 400), genObservations(3, 400)}
	build := func(i int) *Registry {
		r := NewRegistry()
		apply(r, streams[i])
		return r
	}
	left := build(0)
	lb := build(1)
	if err := left.Merge(lb); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(build(2)); err != nil {
		t.Fatal(err)
	}
	rightBC := build(1)
	if err := rightBC.Merge(build(2)); err != nil {
		t.Fatal(err)
	}
	right := build(0)
	if err := right.Merge(rightBC); err != nil {
		t.Fatal(err)
	}
	if got, want := snapJSON(t, left), snapJSON(t, right); !bytes.Equal(got, want) {
		t.Fatalf("merge not associative:\n(A+B)+C: %s\nA+(B+C): %s", got, want)
	}
}

// TestShardCountIndependence partitions one observation stream across
// 1, 4, and 16 shards and checks the merged snapshots are
// byte-identical — the property fleet sharding relies on.
func TestShardCountIndependence(t *testing.T) {
	stream := genObservations(42, 4000)
	var snaps [][]byte
	for _, shards := range []int{1, 4, 16} {
		regs := make([]*Registry, shards)
		for i := range regs {
			regs[i] = NewRegistry()
		}
		for i, o := range stream {
			apply(regs[i%shards], []observation{o})
		}
		root := NewRegistry()
		for _, r := range regs {
			if err := root.Merge(r); err != nil {
				t.Fatal(err)
			}
		}
		snaps = append(snaps, snapJSON(t, root))
	}
	if !bytes.Equal(snaps[0], snaps[1]) || !bytes.Equal(snaps[0], snaps[2]) {
		t.Fatalf("snapshots differ across shard counts:\n1: %s\n4: %s\n16: %s", snaps[0], snaps[1], snaps[2])
	}
}

// TestHistogramQuantileErrorBounds checks histogram quantiles inherit
// the sketch's relative error bound against the exact empirical
// quantile.
func TestHistogramQuantileErrorBounds(t *testing.T) {
	rng := geom.NewRNG(7)
	r := NewRegistryAccuracy(0.02)
	h := r.Histogram("lat")
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.Exp(40)
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	hv := r.Snapshot().Histograms[0]
	for _, c := range []struct{ q, got float64 }{{0.5, hv.P50}, {0.9, hv.P90}, {0.95, hv.P95}, {0.99, hv.P99}} {
		q, got := c.q, c.got
		idx := int(q * float64(len(vals)-1))
		exact := vals[idx]
		// The sketch guarantees relative error alpha; allow 2x for the
		// empirical-index discretization.
		if math.Abs(got-exact) > 2*0.02*exact {
			t.Fatalf("q=%v: got %v, exact %v (rel err %v)", q, got, exact, math.Abs(got-exact)/exact)
		}
	}
}

// TestMergeAccuracyMismatch: merging registries with different sketch
// accuracies must fail loudly, not silently lose precision.
func TestMergeAccuracyMismatch(t *testing.T) {
	a := NewRegistryAccuracy(0.01)
	b := NewRegistryAccuracy(0.05)
	a.Histogram("h").Observe(1)
	b.Histogram("h").Observe(2)
	if err := a.Merge(b); err == nil {
		t.Fatal("expected accuracy-mismatch error")
	}
}

func TestSnapshotSortedAndProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Add(2)
	r.Gauge("mid").Record(3.5)
	r.Histogram("lat").Observe(10)
	s := r.Snapshot()
	if !sort.SliceIsSorted(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name }) {
		t.Fatal("counters not sorted")
	}
	var b bytes.Buffer
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE alpha counter\nalpha 2\n",
		"# TYPE mid gauge\nmid 3.5\n",
		"# TYPE lat summary\n",
		"lat{quantile=\"0.5\"}",
		"lat_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
