// Command qarvsweep runs a declarative grid experiment through the
// sweep engine: axes given as repeated -axis flags are crossed into a
// grid of cells over the calibrated scenario and executed concurrently
// on the chosen backend (in-process pool, or a session fleet per cell),
// with per-cell seed derivation so output is byte-identical at any
// worker count.
//
// Usage:
//
//	qarvsweep -axis v=0.5,1,2 -axis net=static,markov:0.6,handoff
//	          [-axis rate=0.8,1] [-axis arrivals=0.9,1.1] [-axis slots=400,800]
//	          [-axis alloc=equal,maxweight] [-axis policy=proposed,max,min]
//	          [-backend pool|fleet] [-sessions N] [-workers N]
//	          [-samples N] [-slots T] [-knee K] [-seed S]
//	          [-json] [-csv FILE] [-chart] [-quiet]
//	          [-metrics FILE] [-trace FILE]
//
// Axis kinds: v (factors of the calibrated V), rate (service-rate
// fractions), arrivals (Poisson means), slots (horizons), net (the
// -net classes static, markov, handoff, trace[:FILE] of qarvsim and
// qarvfleet, plus the mean-preserving markov:VOLATILITY[:DWELL]), alloc
// (allocator names, learned forms bandit[:ARMS] and gradient[:STEP]
// included; pool backend only), policy (proposed, max, min, random,
// threshold, oracle, predictive[:H], delayed[:L],
// predictive-delayed[:L]), content (assets measured through the
// content pipeline — synthetic names or .ply files; cells run over each
// asset's measured byte/PSNR ladders), viewdist (ASSET:D1,D2,... —
// view-PSNR at each camera distance in meters). Unknown kinds are
// rejected with the list.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"qarv"
	"qarv/cmd/internal/names"
	"qarv/cmd/internal/telemetry"
	"qarv/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvsweep:", err)
		os.Exit(1)
	}
}

type options struct {
	axes     []string
	backend  string
	sessions int
	workers  int
	samples  int
	slots    int
	knee     float64
	seed     uint64
	jsonOut  bool
	csvPath  string
	chart    bool
	quiet    bool
	sinks    *telemetry.Sinks
}

// axisFlags collects repeated -axis specs in order.
type axisFlags []string

// String implements flag.Value.
func (a *axisFlags) String() string { return strings.Join(*a, " ") }

// Set implements flag.Value.
func (a *axisFlags) Set(v string) error {
	*a = append(*a, v)
	return nil
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("qarvsweep", flag.ContinueOnError)
	var o options
	var seed int64
	var axes axisFlags
	fs.Var(&axes, "axis", "axis spec name=v1,v2,... (repeatable): v, rate, arrivals, slots, net, alloc, policy, content, viewdist. "+
		"net takes static, markov, markov:VOL[:DWELL], handoff, trace[:FILE]; a bare markov is the -net markov class of qarvsim and qarvfleet, "+
		"markov:VOL[:DWELL] the mean-preserving shape (x(1+VOL)/x(1-VOL), DWELL-slot dwells, default 10)")
	fs.StringVar(&o.backend, "backend", "pool", "cell executor: pool (in-process) or fleet (a session population per cell)")
	fs.IntVar(&o.sessions, "sessions", 256, "sessions per cell on the fleet backend")
	fs.IntVar(&o.workers, "workers", 0, "concurrent cells (0 = GOMAXPROCS); output is identical for every value")
	fs.IntVar(&o.samples, "samples", 400_000, "surface samples for the synthetic capture")
	fs.IntVar(&o.slots, "slots", 0, "default cell horizon (0 = scenario horizon; -axis slots wins)")
	fs.Float64Var(&o.knee, "knee", 400, "target knee slot for V calibration")
	fs.Int64Var(&seed, "seed", 1, "sweep seed (cells derive decorrelated seeds from it)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the full SweepReport as JSON")
	fs.StringVar(&o.csvPath, "csv", "", "also write the report table as CSV to FILE")
	fs.BoolVar(&o.chart, "chart", false, "render an ASCII chart of the metrics over the grid")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress the text table on stdout")
	o.sinks = telemetry.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.sinks.Resolve()
	o.seed = uint64(seed)
	o.axes = axes
	return o, nil
}

// parseFloats splits a comma list into floats.
func parseFloats(kind, list string) ([]float64, error) {
	parts := strings.Split(list, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("axis %s: bad value %q", kind, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// buildAxis turns one -axis spec into a typed engine axis. The options
// supply the content pipeline's capture knobs (samples, seed) for the
// content and viewdist kinds.
func buildAxis(spec string, o options) (qarv.SweepAxis, error) {
	name, list, ok := strings.Cut(spec, "=")
	if !ok || list == "" {
		return qarv.SweepAxis{}, fmt.Errorf("axis spec %q: want name=v1,v2,...", spec)
	}
	switch name {
	case "v":
		vals, err := parseFloats(name, list)
		if err != nil {
			return qarv.SweepAxis{}, err
		}
		return qarv.AxisV(vals...), nil
	case "rate":
		vals, err := parseFloats(name, list)
		if err != nil {
			return qarv.SweepAxis{}, err
		}
		return qarv.AxisServiceRate(vals...), nil
	case "arrivals":
		vals, err := parseFloats(name, list)
		if err != nil {
			return qarv.SweepAxis{}, err
		}
		return qarv.AxisArrivalRate(vals...), nil
	case "slots":
		parts := strings.Split(list, ",")
		slots := make([]int, 0, len(parts))
		for _, p := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return qarv.SweepAxis{}, fmt.Errorf("axis slots: bad value %q", p)
			}
			slots = append(slots, n)
		}
		return qarv.AxisSlots(slots...), nil
	case "alloc":
		return qarv.AxisAllocator(names.List(list)...), nil
	case "policy":
		specs := make([]qarv.PolicySpec, 0)
		for _, p := range names.List(list) {
			ps, err := names.Spec(p)
			if err != nil {
				return qarv.SweepAxis{}, err
			}
			specs = append(specs, ps)
		}
		return qarv.AxisPolicy(specs...), nil
	case "net":
		nets := make([]qarv.SweepNetwork, 0)
		for _, p := range names.List(list) {
			n, err := buildNetwork(p)
			if err != nil {
				return qarv.SweepAxis{}, err
			}
			nets = append(nets, n)
		}
		return qarv.AxisNetwork(nets...), nil
	case "content":
		assets := strings.Split(list, ",")
		profiles := make([]*qarv.ContentProfile, 0, len(assets))
		for _, a := range assets {
			prof, err := qarv.LoadContent(qarv.ContentConfig{
				Asset:   strings.TrimSpace(a),
				Samples: o.samples,
				Seed:    o.seed,
			})
			if err != nil {
				return qarv.SweepAxis{}, fmt.Errorf("axis content: %w", err)
			}
			profiles = append(profiles, prof)
		}
		return qarv.AxisContent(profiles...), nil
	case "viewdist":
		asset, distList, ok := strings.Cut(list, ":")
		if !ok || distList == "" {
			return qarv.SweepAxis{}, fmt.Errorf("axis viewdist: want viewdist=ASSET:D1,D2,...")
		}
		dists, err := parseFloats(name, distList)
		if err != nil {
			return qarv.SweepAxis{}, err
		}
		return qarv.AxisViewDistance(qarv.ContentConfig{
			Asset:   strings.TrimSpace(asset),
			Samples: o.samples,
			Seed:    o.seed,
		}, dists...), nil
	default:
		return qarv.SweepAxis{}, fmt.Errorf("unknown axis %q (want v, rate, arrivals, slots, net, alloc, policy, content, viewdist)", name)
	}
}

// buildNetwork parses one net-axis token. markov:VOLATILITY is the
// mean-preserving NetworkMarkov shape; its optional dwell (mean
// fading-state duration in slots) selects the slow-fading shape the
// learning ablation's predictive policy targets. Every other token is a
// -net class of the shared grammar (cmd/internal/names), modulating the
// cell's base capacity by the factor qarvsim and qarvfleet use.
func buildNetwork(token string) (qarv.SweepNetwork, error) {
	kind, arg, _ := strings.Cut(token, ":")
	if kind == "markov" && arg != "" {
		vol := 0.6
		volArg, dwellArg, hasDwell := strings.Cut(arg, ":")
		if volArg != "" {
			v, err := strconv.ParseFloat(volArg, 64)
			if err != nil {
				return qarv.SweepNetwork{}, fmt.Errorf("net markov: bad volatility %q", volArg)
			}
			vol = v
		}
		if hasDwell {
			d, err := strconv.ParseFloat(dwellArg, 64)
			if err != nil {
				return qarv.SweepNetwork{}, fmt.Errorf("net markov: bad dwell %q", dwellArg)
			}
			return qarv.NetworkMarkovDwell(vol, d), nil
		}
		return qarv.NetworkMarkov(vol), nil
	}
	net, err := names.Network(token)
	if err != nil && kind != "trace" {
		err = fmt.Errorf("%w (or markov:VOL[:DWELL])", err)
	}
	return net, err
}

func run(ctx context.Context, args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if len(o.axes) == 0 {
		return fmt.Errorf("no axes: pass at least one -axis (e.g. -axis v=0.5,1,2)")
	}
	if o.jsonOut && o.chart {
		return fmt.Errorf("-json and -chart are mutually exclusive: the chart would corrupt the JSON stream (use -csv alongside -json instead)")
	}
	if o.slots < 0 {
		return fmt.Errorf("-slots %d: slot count must not be negative (0 = the scenario horizon)", o.slots)
	}
	axes := make([]qarv.SweepAxis, 0, len(o.axes))
	for _, spec := range o.axes {
		ax, err := buildAxis(spec, o)
		if err != nil {
			return err
		}
		axes = append(axes, ax)
	}

	scn, err := qarv.NewScenario(qarv.ScenarioParams{
		Samples:  o.samples,
		KneeSlot: o.knee,
		Seed:     o.seed,
	})
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	sw, err := qarv.NewSweep(scn, axes...)
	if err != nil {
		return err
	}
	sw.Workers = o.workers
	sw.Slots = o.slots
	sw.Seed = o.seed
	sw.Metrics = o.sinks.Registry
	sw.Recorder = o.sinks.Recorder
	switch o.backend {
	case "pool":
		sw.Backend = qarv.BackendPool()
	case "fleet":
		sw.Backend = qarv.BackendFleet(o.sessions)
	default:
		return fmt.Errorf("unknown -backend %q (want pool or fleet)", o.backend)
	}

	rep, err := sw.Run(ctx)
	if err != nil {
		return err
	}

	if o.csvPath != "" {
		tab, err := rep.Table()
		if err != nil {
			return err
		}
		f, err := os.Create(o.csvPath)
		if err != nil {
			return err
		}
		if err := tab.WriteCSV(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		return o.sinks.Export(out, os.Stderr)
	}
	if !o.quiet {
		fmt.Fprintf(out, "sweep: %d cells over %s (backend %s, seed %d)\n\n",
			len(rep.Rows), strings.Join(rep.Axes, " × "), rep.Backend, rep.Seed)
		headers, cells := rep.TextTable()
		if err := trace.RenderTextTable(out, headers, cells); err != nil {
			return err
		}
	}
	if o.chart {
		tab, err := rep.Table()
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := tab.RenderASCII(out, trace.ChartOptions{Title: "sweep metrics over grid cells"}); err != nil {
			return err
		}
	}
	return o.sinks.Export(out, os.Stderr)
}
