// Command perfbench is qarv's benchmark: one program, run from outside
// the library, that every performance or simplicity change is judged by.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Four workloads stress different layers:
//
//	fleet-mix      fleet.Run over qarvfleet's default heterogeneous mix
//	               (20k seats, churn 0.001, shards = cores): the streaming
//	               slot kernel and sketch accumulation.
//	sweep-grid     a pool-backend allocator × network grid (12 cells of
//	               8-device shared-budget runs on 2 workers): the same
//	               slot cycle through sim, plus allocators, learners and
//	               netem processes.
//	content-build  uncached content.Build of two synthetic presets, with
//	               geometry and view quality: the per-asset set-up cost.
//	edge-live      an in-process stream.Server on loopback with
//	               validation on, fed by two connections on a fixed
//	               open-loop schedule: the only workload over real
//	               sockets.
//
// BENCHMARK.json lists all but sweep-grid: the grid allocates about
// 170 MB per run, and on a shared 2-vCPU machine its wall time drifted by
// 30% between runs minutes apart, more than any bound allows. It still
// runs by name, and its layers are measured in every traced run.
//
// With --trace 0 a run measures one workload for --seconds seconds with
// no tracing and reports the end-to-end metrics, which every workload
// defines over its own unit operation:
//
//	setup_s           median seconds of one set-up (calibration, capture,
//	                  payload serialization, server start), set up three
//	                  times per run
//	peak_rss_mb       peak resident set of the process
//	throughput_per_s  work per wall second: device-slots (fleet-mix,
//	                  sweep-grid), built profiles (content-build), acked
//	                  frames (edge-live)
//	op_p50_ms         median latency of one operation: a fleet run, a
//	                  grid run, one asset's geometry and view builds, one
//	                  frame from when it was due to its ack
//	op_p95_ms         95th percentile of the same latencies
//
// Each run also prints its process CPU time per operation and the CPU
// time the hypervisor stole from the machine while it ran: on a shared
// virtual machine wall times swing with the host's load, and the steal
// figure says when a run's numbers were taken under contention.
//
// With --trace 1 a run executes every workload's attribution pass, whatever
// --workload names: spans around each call into a library package, kept in
// memory and written to .bench_build/traces at the end, yield the per-layer
// metrics, each printed with the end-to-end metric and workload it should
// move.
//
// Every workload checks the library's outputs; a failed check counts as a
// failed operation and makes the run exit non-zero after its result line.
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives: its seed, its measuring
// time, and the parallelism it may use.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	// workers bounds parallel goroutines: fleet shards, sweep workers.
	// It is the smaller of GOMAXPROCS and the machine's CPU count, so
	// shards never exceed cores.
	workers int
}

// outcome is one untraced workload run.
type outcome struct {
	setups []time.Duration
	ops    []time.Duration
	// p50 and p95 are the reported operation latencies; summarize sets
	// them, from ops alone unless the workload windows them.
	p50, p95 time.Duration
	// throughput is work units per wall second (see the package doc).
	throughput float64
	// attempted and failed count the workload's operations; failures
	// holds a line per failed check.
	attempted, failed int
	failures          []string
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN records n failed operations under one message.
func (o *outcome) failN(n int, format string, args ...any) {
	o.failed += n
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// summarize sets the latency percentiles to the median across windows
// of each window's percentile.
func (o *outcome) summarize(windows [][]time.Duration) {
	var p50s, p95s []float64
	for _, w := range windows {
		if len(w) > 0 {
			p50s = append(p50s, float64(quantile(w, 0.50)))
			p95s = append(p95s, float64(quantile(w, 0.95)))
		}
	}
	o.p50, o.p95 = time.Duration(medianF(p50s)), time.Duration(medianF(p95s))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{"fleet-mix", runFleetMix},
	{"sweep-grid", runSweepGrid},
	{"content-build", runContentBuild},
	{"edge-live", runEdgeLive},
}

// setupRepeats is how many times each run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload: fleet-mix, sweep-grid, content-build, edge-live")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced attribution passes instead of the untraced workload")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload fleet-mix|sweep-grid|content-build|edge-live --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.GOMAXPROCS(0),
	}
	if n := runtime.NumCPU(); n < rc.workers {
		rc.workers = n
	}
	env := stamp(wl.name, *seed)
	envJSON, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Printf("# env %s\n", envJSON)

	var res *result
	if *trace == 1 {
		res, err = runTraced(rc, env)
	} else {
		res, err = runUntraced(wl, rc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runUntraced runs one workload with tracing off and assembles its
// end-to-end metrics.
func runUntraced(wl *workload, rc runConfig) (*result, error) {
	steal0 := stolen()
	o, err := wl.run(rc)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s: the hypervisor stole %.1f CPU seconds from the machine during the run\n", wl.name, (stolen() - steal0).Seconds())
	for _, f := range o.failures {
		fmt.Printf("# FAILED CHECK %s\n", f)
	}
	if o.p50 == 0 {
		o.summarize([][]time.Duration{o.ops})
	}
	fmt.Printf("# %s: %d operations timed, %d of %d attempted failed; setups %v\n", wl.name, len(o.ops), o.failed, o.attempted, o.setups)
	res := &result{
		Correct:   o.failed == 0 && len(o.ops) > 0,
		Attempted: o.attempted,
		Failed:    min(o.failed, o.attempted),
		Metrics: map[string]metric{
			"setup_s":          {median(o.setups).Seconds(), "s"},
			"peak_rss_mb":      {peakRSSMB(), "MB"},
			"throughput_per_s": {o.throughput, "1/s"},
			"op_p50_ms":        {ms(o.p50), "ms"},
			"op_p95_ms":        {ms(o.p95), "ms"},
		},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res, nil
}

// repeatSetup runs set-up setupRepeats times, timing each, and keeps the
// last result; release, when set, frees each earlier one untimed.
func repeatSetup[T any](setup func() (T, error), release func(T) error) (T, []time.Duration, error) {
	var last T
	times := make([]time.Duration, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := clock()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, clock().Sub(start))
		if i > 0 && release != nil {
			if err := release(last); err != nil {
				return v, nil, err
			}
		}
		last = v
	}
	return last, times, nil
}

// clock is the benchmark's only wall-clock read.
func clock() time.Time {
	//qarv:allow nondeterminism the benchmark measures wall time by definition; no library state derives from it
	return time.Now()
}

// cpuClock returns the CPU time the process has used (user + system).
func cpuClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen returns the CPU time the hypervisor has stolen from this machine
// across all CPUs (the steal column of /proc/stat; 0 when unavailable).
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of ds (0 when empty).
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantileF(xs, q))
}

// quantileF is quantile over float64 values; it does not modify xs.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianF is the median of xs.
func medianF(xs []float64) float64 { return quantileF(xs, 0.5) }

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// environment stamps every result with what produced it.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

// stamp collects the environment of this run.
func stamp(workload string, seed uint64) environment {
	env := environment{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
		CPU:        "unknown",
		Commit:     "unknown (built outside a git checkout)",
		Workload:   workload,
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			env.Commit = rev
			if modified == "true" {
				env.Commit += "+modified"
			}
		}
	}
	return env
}
