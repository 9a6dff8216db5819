// Command qarvfig regenerates every figure of the paper's evaluation into
// a results directory: CSV series, a JSON dump, and a terminal ASCII
// rendering of each figure (Fig. 1 as a table, Fig. 2(a)/(b) as charts),
// plus the ablation tables (see the benchmark harness in bench_test.go
// for the artifact index).
//
// Usage:
//
//	qarvfig [-fig 1|2a|2b|ablations|grid|offload|all] [-out results]
//	        [-samples N] [-slots T] [-seed S] [-quiet]
//
// The grid figure runs a V × network-volatility cross product through
// the declarative sweep engine (see cmd/qarvsweep for arbitrary grids).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"

	"qarv"
	"qarv/internal/core"
	"qarv/internal/experiments"
	"qarv/internal/quality"
	"qarv/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first Ctrl-C cancels ctx, unregister the handler so a
	// second Ctrl-C falls back to default termination — the graceful
	// path covers the cancelable stages, the hard path everything else.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvfig:", err)
		os.Exit(1)
	}
}

type options struct {
	fig     string
	outDir  string
	samples int
	slots   int
	knee    float64
	seed    uint64
	quiet   bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("qarvfig", flag.ContinueOnError)
	var o options
	var seed int64
	fs.StringVar(&o.fig, "fig", "all", "figure to regenerate: 1, 2a, 2b, ablations, grid, offload, all")
	fs.StringVar(&o.outDir, "out", "results", "output directory for CSV/JSON")
	fs.IntVar(&o.samples, "samples", 400_000, "surface samples for the synthetic capture")
	fs.IntVar(&o.slots, "slots", 800, "simulation horizon (time steps)")
	fs.Float64Var(&o.knee, "knee", 400, "target knee slot for the Proposed scheme (V calibration)")
	fs.Int64Var(&seed, "seed", 1, "synthetic dataset seed")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress ASCII charts on stdout")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.slots <= 0 {
		return o, fmt.Errorf("-slots %d: slot count must be positive", o.slots)
	}
	o.seed = uint64(seed)
	return o, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	doFig1 := o.fig == "1" || o.fig == "all"
	doFig2 := o.fig == "2a" || o.fig == "2b" || o.fig == "all"
	doAbl := o.fig == "ablations" || o.fig == "all"
	doGrid := o.fig == "grid" || o.fig == "all"
	doOffload := o.fig == "offload" || o.fig == "all"
	if !doFig1 && !doFig2 && !doAbl && !doGrid && !doOffload {
		return fmt.Errorf("unknown -fig %q (want 1, 2a, 2b, ablations, grid, offload, all)", o.fig)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	if doFig1 {
		if err := runFig1(ctx, o, out); err != nil {
			return fmt.Errorf("fig 1: %w", err)
		}
	}
	if doFig2 || doAbl || doGrid {
		if err := ctx.Err(); err != nil {
			return err
		}
		scn, err := qarv.NewScenario(qarv.ScenarioParams{
			Samples:  o.samples,
			Slots:    o.slots,
			KneeSlot: o.knee,
			Seed:     o.seed,
		})
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if doFig2 {
			if err := runFig2(ctx, o, scn, out); err != nil {
				return fmt.Errorf("fig 2: %w", err)
			}
		}
		if doAbl {
			if err := runAblations(ctx, o, scn, out); err != nil {
				return fmt.Errorf("ablations: %w", err)
			}
		}
		if doGrid {
			if err := runGrid(ctx, o, scn, out); err != nil {
				return fmt.Errorf("grid: %w", err)
			}
		}
	}
	if doOffload {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := runOffload(ctx, o, out); err != nil {
			return fmt.Errorf("offload: %w", err)
		}
	}
	return nil
}

// runGrid is the cross-product study the bespoke per-ablation loops
// could not express: V × network volatility, each cell a fleet, run
// through the sweep engine in one declarative call.
func runGrid(ctx context.Context, o options, scn *qarv.Scenario, out io.Writer) error {
	sw, err := qarv.NewSweep(scn,
		qarv.AxisV(0.5, 1, 2),
		qarv.AxisNetwork(qarv.NetworkStatic(), qarv.NetworkMarkov(0.3), qarv.NetworkMarkov(0.6)),
	)
	if err != nil {
		return err
	}
	sw.Backend = qarv.BackendFleet(64)
	sw.Slots = 2 * o.slots
	sw.Seed = o.seed
	rep, err := sw.Run(ctx)
	if err != nil {
		return err
	}
	tab, err := rep.Table()
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.outDir, "grid.csv"), tab.WriteCSV); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(out, "\nGRID — V × network volatility (64-session fleet per cell)")
		headers, cells := rep.TextTable()
		if err := trace.RenderTextTable(out, headers, cells); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "grid.csv"))
	return nil
}

func runOffload(ctx context.Context, o options, out io.Writer) error {
	res, err := qarv.SharedUplink(ctx, qarv.SharedUplinkParams{
		ScenarioParams: qarv.ScenarioParams{
			Samples:  o.samples,
			Slots:    o.slots,
			KneeSlot: o.knee,
			Seed:     o.seed,
		},
		Devices: 1,
	})
	if err != nil {
		return err
	}
	dev := res.Multi.PerDevice[0]
	tab := trace.NewTable("Time step", len(dev.Backlog))
	if err := tab.Add(trace.Series{Name: "uplink backlog (bytes)", Values: dev.Backlog}); err != nil {
		return err
	}
	if err := tab.Add(trace.FromInts("depth", dev.Depth)); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.outDir, "offload.csv"), tab.WriteCSV); err != nil {
		return err
	}
	if !o.quiet {
		var depthSum float64
		for _, d := range dev.Depth {
			depthSum += float64(d)
		}
		fmt.Fprintln(out, "\nEXT-OFFLOAD — octree streams over an emulated uplink")
		if err := trace.RenderTextTable(out,
			[]string{"metric", "value"},
			[][]string{
				{"uplink bandwidth (B/slot)", fmt.Sprintf("%.0f", res.Bandwidth)},
				{"bytes(5) .. bytes(10)", fmt.Sprintf("%d .. %d", res.Bytes[5], res.Bytes[10])},
				{"calibrated V", fmt.Sprintf("%.4g", res.V)},
				{"verdict", res.PerDevice[0].Verdict},
				{"mean depth", fmt.Sprintf("%.2f", depthSum/float64(len(dev.Depth)))},
				{"mean latency (slots)", fmt.Sprintf("%.2f", res.MeanLatency)},
				{"p95 latency (slots)", fmt.Sprintf("%.2f", res.P95Latency)},
				{"frames lost", strconv.Itoa(res.LossCount)},
			}); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "offload.csv"))
	return nil
}

func runFig1(ctx context.Context, o options, out io.Writer) error {
	rows, err := experiments.Fig1Context(ctx, experiments.ScenarioParams{Samples: o.samples, Seed: o.seed})
	if err != nil {
		return err
	}
	if err := experiments.Fig1Invariants(rows); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	headers := []string{"octree depth", "points", "point ratio", "geom PSNR (dB)", "Hausdorff (m)", "color PSNR (dB)"}
	cells := make([][]string, len(rows))
	depths := make([]float64, 0, len(rows))
	points := trace.Series{Name: "points"}
	psnr := trace.Series{Name: "psnr_dB"}
	for i, r := range rows {
		cells[i] = []string{
			strconv.Itoa(r.Depth),
			strconv.Itoa(r.Points),
			fmt.Sprintf("%.4f", r.PointRatio),
			fmt.Sprintf("%.2f", r.PSNR),
			fmt.Sprintf("%.5f", r.Hausdorff),
			fmt.Sprintf("%.2f", r.ColorPSNR),
		}
		depths = append(depths, float64(r.Depth))
		points.Values = append(points.Values, float64(r.Points))
		psnr.Values = append(psnr.Values, r.PSNR)
	}
	tab := trace.NewTableWithX("depth", depths)
	if err := tab.Add(points); err != nil {
		return err
	}
	if err := tab.Add(psnr); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.outDir, "fig1.csv"), tab.WriteCSV); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(out, "\nFig. 1 — AR visualization resolution depending on Octree depth")
		if err := trace.RenderTextTable(out, headers, cells); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "fig1.csv"))
	return nil
}

func runFig2(ctx context.Context, o options, scn *experiments.Scenario, out io.Writer) error {
	res, err := experiments.Fig2Context(ctx, scn)
	if err != nil {
		return err
	}
	if err := res.CheckShape(); err != nil {
		return fmt.Errorf("shape check: %w", err)
	}
	backlog, err := res.BacklogTable()
	if err != nil {
		return err
	}
	control, err := res.ControlTable()
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.outDir, "fig2a.csv"), backlog.WriteCSV); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(o.outDir, "fig2b.csv"), control.WriteCSV); err != nil {
		return err
	}
	if !o.quiet {
		if o.fig == "2a" || o.fig == "all" {
			fmt.Fprintln(out)
			if err := backlog.RenderASCII(out, trace.ChartOptions{
				Title: "Fig. 2(a) — Queue/stability dynamics (backlog vs time)",
			}); err != nil {
				return err
			}
		}
		if o.fig == "2b" || o.fig == "all" {
			fmt.Fprintln(out)
			if err := control.RenderASCII(out, trace.ChartOptions{
				Title: "Fig. 2(b) — Control action updates (# of depth vs time)",
			}); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "\nscenario: service=%.0f pts/slot, calibrated V=%.4g, knee slot=%d\n",
			scn.ServiceRate, scn.V, res.KneeSlot())
		fmt.Fprintf(out, "verdicts: proposed=stabilized  max-depth=diverging  min-depth=converged (checked)\n")
	}
	fmt.Fprintf(out, "wrote %s and %s\n",
		filepath.Join(o.outDir, "fig2a.csv"), filepath.Join(o.outDir, "fig2b.csv"))
	return nil
}

// ablationTable is one titled text table of the ablation report.
type ablationTable struct {
	title   string
	headers []string
	cells   [][]string
}

// runAblations writes every ablation table to ablations.txt and, unless
// quiet, to out.
func runAblations(ctx context.Context, o options, scn *experiments.Scenario, out io.Writer) error {
	tables, err := ablationTables(ctx, scn)
	if err != nil {
		return err
	}
	write := func(w io.Writer) error {
		for _, t := range tables {
			if _, err := fmt.Fprintf(w, "\n%s\n", t.title); err != nil {
				return err
			}
			if err := trace.RenderTextTable(w, t.headers, t.cells); err != nil {
				return err
			}
		}
		return nil
	}
	path := filepath.Join(o.outDir, "ablations.txt")
	if err := writeFile(path, write); err != nil {
		return err
	}
	if !o.quiet {
		if err := write(out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// ablationTables runs the ablations, each a one-axis sweep on the pool
// backend: ABL-V, ABL-RATE, ABL-UTIL, the multi-device allocator cell
// (ABL-MD) and the baseline policy grid (ABL-BASE). Each run honors ctx
// inside its slot loops.
func ablationTables(ctx context.Context, scn *experiments.Scenario) ([]ablationTable, error) {
	// ABL-V. The knee (and hence time-to-steady-state) scales with V:
	// the horizon covers the largest factor's knee with settling room.
	vFactors := []float64{0.01, 0.1, 0.5, 1, 2, 10}
	vSlots := 4 * scn.Params.Slots
	if scaled := int(4 * slices.Max(vFactors) * scn.Params.KneeSlot); scaled > vSlots {
		vSlots = scaled
	}
	vRows, err := sweepRows(ctx, scn, vSlots, qarv.AxisV(vFactors...))
	if err != nil {
		return nil, err
	}
	v := ablationTable{
		title:   "ABL-V — V tradeoff (O(1/V) utility gap vs O(V) backlog)",
		headers: []string{"V", "avg utility", "avg backlog", "max backlog", "verdict", "bound gap", "bound backlog"},
	}
	for i, r := range vRows {
		vi := scn.V * vFactors[i]
		// The theoretical guarantees at this V, next to the measurement;
		// zero where the bounds are undefined.
		var bounds core.Bounds
		if ctrl, err := scn.ControllerWithV(vi); err == nil {
			if b, err := ctrl.TheoreticalBounds(scn.ServiceRate); err == nil {
				bounds = b
			}
		}
		v.cells = append(v.cells, []string{
			fmt.Sprintf("%.4g", vi),
			fmt.Sprintf("%.4f", r.Utility),
			fmt.Sprintf("%.0f", r.Backlog),
			fmt.Sprintf("%.0f", r.MaxBacklog),
			r.Verdict,
			fmt.Sprintf("%.4g", bounds.UtilityGap),
			fmt.Sprintf("%.4g", bounds.BacklogBound),
		})
	}

	// ABL-RATE: the calibrated controller against scaled service rates.
	rateFractions := []float64{0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4}
	rRows, err := sweepRows(ctx, scn, 2*scn.Params.Slots, qarv.AxisServiceRate(rateFractions...))
	if err != nil {
		return nil, err
	}
	rate := ablationTable{
		title:   "ABL-RATE — service-rate robustness",
		headers: []string{"rate ×", "avg utility", "avg backlog", "verdict", "mean depth"},
	}
	for i, r := range rRows {
		rate.cells = append(rate.cells, []string{
			fmt.Sprintf("%.2f", rateFractions[i]),
			fmt.Sprintf("%.4f", r.Utility),
			fmt.Sprintf("%.0f", r.Backlog),
			r.Verdict,
			fmt.Sprintf("%.2f", r.MeanDepth),
		})
	}

	// ABL-UTIL: each utility model with V recalibrated for it, so knees
	// stay comparable across models.
	uRows, err := sweepRows(ctx, scn, scn.Params.Slots, utilityAxis(scn))
	if err != nil {
		return nil, err
	}
	util := ablationTable{
		title:   "ABL-UTIL — utility-model sensitivity",
		headers: []string{"utility model", "avg backlog", "verdict", "mean depth", "knee slot"},
	}
	for _, r := range uRows {
		util.cells = append(util.cells, []string{
			r.Coords[0].Label,
			fmt.Sprintf("%.0f", r.Backlog),
			r.Verdict,
			fmt.Sprintf("%.2f", r.MeanDepth),
			strconv.Itoa(r.KneeSlot),
		})
	}

	// ABL-MD: four devices, each acting on its own backlog alone (§II),
	// share four times the single-device service under an equal split.
	unit := qarv.AllocDeviceSpec{ArrivalsPerSlot: 1, CostScale: 1}
	mdRows, err := sweepRows(ctx, scn, 2*scn.Params.Slots, qarv.AxisAllocator("equal"),
		func(c *qarv.SweepCell) error {
			c.Devices = []qarv.AllocDeviceSpec{unit, unit, unit, unit}
			c.Budget = 4 * scn.ServiceRate
			return nil
		})
	if err != nil {
		return nil, err
	}
	md := ablationTable{
		title:   "ABL-MD — distributed multi-device (shared service)",
		headers: []string{"device", "avg utility", "avg backlog", "verdict"},
	}
	for i, r := range mdRows[0].Detail.Multi.PerDevice {
		verdict, err := r.Verdict()
		if err != nil {
			return nil, err
		}
		md.cells = append(md.cells, []string{
			strconv.Itoa(i),
			fmt.Sprintf("%.4f", r.TimeAvgUtility),
			fmt.Sprintf("%.0f", r.TimeAvgBacklog),
			verdict.String(),
		})
	}

	// ABL-BASE: the Proposed controller against every reference policy at
	// the scenario horizon. The random point draws from the stream the
	// scenario seed starts (a nil RNG), not from its cell's stream.
	var specs []qarv.PolicySpec
	for _, name := range []string{"proposed", "max", "min", "random", "threshold", "oracle"} {
		spec, err := qarv.SweepPolicyByName(name)
		if err != nil {
			return nil, err
		}
		if name == "random" {
			build := spec.New
			spec.New = func(s *qarv.Scenario, _ *qarv.RNG) (qarv.Policy, error) { return build(s, nil) }
		}
		specs = append(specs, spec)
	}
	bRows, err := sweepRows(ctx, scn, scn.Params.Slots, qarv.AxisPolicy(specs...))
	if err != nil {
		return nil, err
	}
	base := ablationTable{
		title:   "ABL-BASE — extended baseline comparison",
		headers: []string{"policy", "avg utility", "avg backlog", "max backlog", "verdict"},
	}
	for _, r := range bRows {
		base.cells = append(base.cells, []string{
			r.Detail.Sim.PolicyName,
			fmt.Sprintf("%.4f", r.Utility),
			fmt.Sprintf("%.0f", r.Backlog),
			fmt.Sprintf("%.0f", r.MaxBacklog),
			r.Verdict,
		})
	}
	return []ablationTable{v, rate, util, md, base}, nil
}

// sweepRows runs a one-axis sweep on the pool backend at the given
// horizon, with configure applied to every cell first, and returns its
// rows in axis order.
func sweepRows(ctx context.Context, scn *qarv.Scenario, slots int, axis qarv.SweepAxis,
	configure ...func(c *qarv.SweepCell) error) ([]qarv.SweepRow, error) {
	sw, err := qarv.NewSweep(scn, axis)
	if err != nil {
		return nil, err
	}
	sw.Slots = slots
	sw.Configure(configure...)
	rep, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	return rep.Rows, nil
}

// utilityAxis sweeps the three utility models over the scenario's
// occupancy profile (log-points, normalized-points, linear-depth), each
// cell recalibrating V for its model. A model whose profile rejects it
// is left out.
func utilityAxis(scn *experiments.Scenario) qarv.SweepAxis {
	var models []quality.UtilityModel
	if m, err := quality.NewLogPointUtility(scn.Profile); err == nil {
		models = append(models, m)
	}
	if m, err := quality.NewNormalizedPointUtility(scn.Profile); err == nil {
		models = append(models, m)
	}
	models = append(models, &quality.LinearDepthUtility{MaxDepth: scn.Params.CaptureDepth})
	axis := qarv.SweepAxis{Name: "utility"}
	for _, m := range models {
		m := m
		axis.Points = append(axis.Points, qarv.SweepAxisPoint{
			Label: m.Name(),
			Apply: func(c *qarv.SweepCell) error {
				c.Utility = m
				c.RecalibrateV = true
				return nil
			},
		})
	}
	return axis
}

// writeFile creates path and fills it through write, reporting the
// Close error too (it can carry a deferred write failure).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
