package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run: spans around each call into a library package, kept
// in memory and written out when the run ends. A span names the layer
// (the repo module the call enters) and the call; batched replays of
// per-slot calls record one span covering Count calls. A layer's self
// time is its spans' durations minus the part their child spans cover.

// span is one timed call (or batch of calls) into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer records spans; safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: clock()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (tr *tracer) begin(parent int, layer, name string) int {
	start := clock().Sub(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: -1, Count: 1})
	return id
}

// end closes span id, recording how many calls it covered, and returns
// its duration.
func (tr *tracer) end(id int, count int64) time.Duration {
	end := clock().Sub(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id]
	s.End = end
	s.Count = count
	return time.Duration(s.End - s.Start)
}

// call times f as one span of count calls under parent.
func (tr *tracer) call(parent int, layer, name string, count int64, f func() error) (time.Duration, error) {
	id := tr.begin(parent, layer, name)
	err := f()
	return tr.end(id, count), err
}

// selfTimes returns each layer's self time: span durations minus the
// union of their children's intervals.
func (tr *tracer) selfTimes() map[string]time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curLo, curHi := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[s.Layer] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write stores the spans, the per-layer self times, and the environment
// stamp as JSON under dir, returning the file path.
func (tr *tracer) write(dir string, env environment, layers []layerMetric) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	self := tr.selfTimes()
	selfNS := make(map[string]int64, len(self))
	for k, v := range self {
		selfNS[k] = v.Nanoseconds()
	}
	tr.mu.Lock()
	doc := struct {
		Env     environment      `json:"env"`
		SelfNS  map[string]int64 `json:"self_ns"`
		Metrics []layerMetric    `json:"metrics"`
		Spans   []span           `json:"spans"`
	}{env, selfNS, layers, tr.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	tr.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("trace encode: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", env.Workload, env.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, nil
}

// layerMetric is one per-layer metric with the end-to-end metric and
// workload it should move.
type layerMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves"`
}

// attribution collects a traced run's per-layer metrics and check
// results.
type attribution struct {
	tr        *tracer
	rc        runConfig
	metrics   []layerMetric
	attempted int
	failures  []string
}

// add records one per-layer metric.
func (a *attribution) add(name string, value float64, unit, moves string) {
	a.metrics = append(a.metrics, layerMetric{name, value, unit, moves})
}

// check counts one verified operation, recording a failure when ok is
// false.
func (a *attribution) check(ok bool, format string, args ...any) {
	a.attempted++
	if !ok {
		a.failures = append(a.failures, fmt.Sprintf(format, args...))
	}
}

// attributionPasses are the per-workload traced passes, each adding its
// layers' metrics.
var attributionPasses = []struct {
	workload string
	run      func(a *attribution) error
}{
	{"fleet-mix", attributeFleetMix},
	{"sweep-grid", attributeSweepGrid},
	{"content-build", attributeContentBuild},
	{"edge-live", attributeEdgeLive},
}

// runTraced executes every attribution pass and reports the per-layer
// metrics.
func runTraced(rc runConfig, env environment) (*result, error) {
	a := &attribution{tr: newTracer(), rc: rc}
	for _, p := range attributionPasses {
		start := clock()
		if err := p.run(a); err != nil {
			return nil, fmt.Errorf("%s attribution: %w", p.workload, err)
		}
		fmt.Printf("# traced pass %s took %.1fs\n", p.workload, clock().Sub(start).Seconds())
	}
	for _, f := range a.failures {
		fmt.Printf("# FAILED CHECK %s\n", f)
	}
	self := a.tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("# self time per layer (all traced passes):")
	for _, k := range names {
		fmt.Printf("#   %-12s %10.3f s\n", k, self[k].Seconds())
	}
	fmt.Println("# per-layer metrics (-> end-to-end metric @ workload it should move):")
	res := &result{Metrics: make(map[string]metric, len(a.metrics))}
	for _, m := range a.metrics {
		fmt.Printf("#   %-40s %16.6g %-6s -> %s\n", m.Name, m.Value, m.Unit, m.Moves)
		res.Metrics[m.Name] = metric{m.Value, m.Unit}
	}
	path, err := a.tr.write(filepath.Join(".bench_build", "traces"), env, a.metrics)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", path)
	res.Attempted = a.attempted
	res.Failed = len(a.failures)
	res.Correct = len(a.failures) == 0 && a.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res, nil
}
