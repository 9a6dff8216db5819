// Command qarvsim runs one AR-visualization control scenario and prints
// its trajectory summary — the interactive companion to qarvfig for
// exploring policies, V values, and service rates. It drives the run
// through the qarv Session API, so Ctrl-C cancels cleanly mid-run.
//
// Usage:
//
//	qarvsim [-policy proposed|max|min|random|threshold|oracle|fixed:N|
//	                 predictive[:H]|delayed[:L]|predictive-delayed[:L]]
//	        [-v V] [-knee SLOT] [-slots T] [-samples N] [-service-frac F]
//	        [-seed S] [-chart] [-metrics FILE] [-trace FILE]
//	        [-devices N] [-alloc equal|proportional|maxweight|wrr|
//	                             bandit[:ARMS]|gradient[:STEP]]
//	        [-net static|markov|trace[:FILE]|handoff]
//	        [-content ASSET|FILE.ply]
//
// With -devices N the run becomes the shared-edge multi-device scenario:
// N copies of the chosen policy contend for N× the calibrated service
// budget, split per slot by the -alloc strategy. The bandit and
// gradient allocators learn the split online from per-slot utility and
// backlog feedback; their trajectories are seeded from -seed. The
// predictive/delayed policy forms wrap the proposed controller with the
// learning layer's display prediction across a delayed control loop.
//
// -net makes the service capacity time-varying: markov modulates it
// with a Gilbert–Elliott good/bad fading chain (×1 / ×0.3), trace
// replays a piecewise pattern (the built-in diurnal cycle, or a
// CSV/JSON trace file normalized to its peak — measured bytes/slot
// captures and hand-written factor patterns both work), and handoff
// injects mobility outages with new-cell capacity scales. In
// multi-device runs the modulation applies to the shared edge budget
// the allocator splits.
//
// -content grounds the run in a measured content profile: the named
// synthetic asset (or a .ply file) is captured, its octree stream bytes
// and PSNR measured per depth, and the controller calibrated over those
// ladders — cost becomes bytes/frame and the service rate bytes/slot.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"qarv"
	"qarv/cmd/internal/names"
	"qarv/cmd/internal/telemetry"
	"qarv/internal/trace"
)

// netSeedSalt derives the -net factor's stream from the run seed, so
// repeated runs replay the same capacity path.
const netSeedSalt = 0x6e6574 // "net"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first Ctrl-C cancels ctx, unregister the handler so a
	// second Ctrl-C falls back to default termination even during the
	// non-cancelable scenario calibration.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qarvsim", flag.ContinueOnError)
	policyName := fs.String("policy", "proposed", "policy: "+names.PolicyUsage())
	vOverride := fs.Float64("v", 0, "override the calibrated V (0 = use calibration)")
	knee := fs.Float64("knee", 400, "calibrated knee slot for the proposed policy")
	slots := fs.Int("slots", 800, "simulation horizon")
	samples := fs.Int("samples", 400_000, "synthetic capture surface samples")
	serviceFrac := fs.Float64("service-frac", 0.6, "service rate position in (a(d_max-1), a(d_max))")
	seed := fs.Int64("seed", 1, "random seed")
	chart := fs.Bool("chart", false, "render ASCII backlog/depth charts")
	devices := fs.Int("devices", 0, "run N devices sharing the edge budget (0 = single device)")
	allocName := fs.String("alloc", "", "multi-device budget split: "+names.AllocatorUsage()+" (default equal)")
	netName := fs.String("net", "static", "network dynamics modulating the service: "+names.NetworkUsage)
	contentAsset := fs.String("content", "", "ground the run in a measured content profile: synthetic asset name or a .ply file (cost/utility become the asset's measured byte/PSNR ladders)")
	sinks := telemetry.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sinks.Resolve()
	if *allocName != "" && *devices <= 0 {
		return fmt.Errorf("-alloc %q requires -devices", *allocName)
	}
	net, err := names.Network(*netName)
	if err != nil {
		return err
	}

	var scn *qarv.Scenario
	unit := "points/slot"
	if *contentAsset != "" {
		prof, perr := qarv.LoadContent(qarv.ContentConfig{
			Asset:   *contentAsset,
			Samples: *samples,
			Seed:    uint64(*seed),
		})
		if perr != nil {
			return fmt.Errorf("content profile: %w", perr)
		}
		scn, err = qarv.NewContentScenario(qarv.ScenarioParams{
			Slots:           *slots,
			ServiceFraction: *serviceFrac,
			KneeSlot:        *knee,
		}, prof)
		unit = "bytes/slot"
	} else {
		scn, err = qarv.NewScenario(qarv.ScenarioParams{
			Samples:         *samples,
			Slots:           *slots,
			Seed:            uint64(*seed),
			ServiceFraction: *serviceFrac,
			KneeSlot:        *knee,
		})
	}
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}

	// Calibration isn't cancelable; honor a Ctrl-C that arrived during it.
	if err := ctx.Err(); err != nil {
		return err
	}
	if *devices > 0 {
		return runMulti(ctx, out, scn, sinks, unit, *devices, *allocName, *policyName, net, *vOverride, uint64(*seed), *chart)
	}
	p, err := buildPolicy(*policyName, *vOverride, scn, uint64(*seed))
	if err != nil {
		return err
	}
	opts := []qarv.Option{qarv.WithScenario(scn), qarv.WithPolicy(p),
		qarv.WithTelemetry(sinks.Registry), qarv.WithFlightRecorder(sinks.Recorder)}
	sess, err := qarv.NewSession(append(opts, qarv.WithService(net.New(scn.ServiceRate, qarv.NewRNG(uint64(*seed)^netSeedSalt))))...)
	if err != nil {
		return err
	}
	rep, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	res := rep.Sim

	fmt.Fprintf(out, "policy            %s\n", res.PolicyName)
	if *contentAsset != "" {
		fmt.Fprintf(out, "content           %s (measured byte/PSNR ladders)\n", scn.Params.Character)
	}
	fmt.Fprintf(out, "slots             %d\n", *slots)
	fmt.Fprintf(out, "service rate      %.0f %s\n", scn.ServiceRate, unit)
	if net.Factor != nil {
		fmt.Fprintf(out, "network           %s\n", net.Factor.Name())
	}
	if strings.HasPrefix(*policyName, "proposed") {
		v := scn.V
		if *vOverride > 0 {
			v = *vOverride
		}
		fmt.Fprintf(out, "V                 %.6g\n", v)
	}
	fmt.Fprintf(out, "verdict           %s\n", rep.Verdict)
	fmt.Fprintf(out, "time-avg utility  %.4f\n", res.TimeAvgUtility)
	fmt.Fprintf(out, "time-avg backlog  %.0f\n", res.TimeAvgBacklog)
	fmt.Fprintf(out, "final backlog     %.0f\n", res.FinalBacklog)
	fmt.Fprintf(out, "max backlog       %.0f\n", res.MaxBacklog)
	fmt.Fprintf(out, "frames completed  %d (mean sojourn %.2f slots)\n",
		len(res.Completed), res.MeanSojourn)
	hist := res.DepthHistogram()
	fmt.Fprint(out, "depth histogram   ")
	for _, d := range scn.Params.Depths {
		if n, ok := hist[d]; ok {
			fmt.Fprintf(out, "%d:%d  ", d, n)
		}
	}
	fmt.Fprintln(out)

	if *chart {
		tab := trace.NewTable("Time step", len(res.Backlog))
		if err := tab.Add(trace.Series{Name: "backlog", Values: res.Backlog}); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := tab.RenderASCII(out, trace.ChartOptions{Title: "Queue backlog"}); err != nil {
			return err
		}
		dep := trace.NewTable("Time step", len(res.Depth))
		if err := dep.Add(trace.FromInts("depth", res.Depth)); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := dep.RenderASCII(out, trace.ChartOptions{Title: "Control action (# of depth)", Height: 8}); err != nil {
			return err
		}
	}
	return sinks.Export(out)
}

// runMulti drives the shared-edge multi-device scenario: n copies of the
// chosen policy (each a fresh instance acting on purely local state)
// contend for n× the calibrated budget under the named allocator,
// optionally modulated by the -net dynamics.
func runMulti(ctx context.Context, out io.Writer, scn *qarv.Scenario, sinks *telemetry.Sinks, unit string, n int, allocName, policyName string, net qarv.SweepNetwork, vOverride float64, seed uint64, chart bool) error {
	if allocName == "" {
		allocName = "equal"
	}
	allocator, err := names.Allocator(allocName, seed)
	if err != nil {
		return err
	}
	devs := make([]qarv.Device, n)
	for i := range devs {
		p, err := buildPolicy(policyName, vOverride, scn, seed+uint64(i))
		if err != nil {
			return err
		}
		devs[i] = qarv.Device{
			Policy:   p,
			Cost:     scn.Cost,
			Utility:  scn.Utility,
			Arrivals: &qarv.DeterministicArrivals{PerSlot: 1},
		}
	}
	opts := []qarv.Option{qarv.WithScenario(scn),
		qarv.WithDevices(devs...), qarv.WithAllocator(allocator),
		qarv.WithTelemetry(sinks.Registry), qarv.WithFlightRecorder(sinks.Recorder)}
	sess, err := qarv.NewSession(append(opts, qarv.WithService(net.New(float64(n)*scn.ServiceRate, qarv.NewRNG(seed^netSeedSalt))))...)
	if err != nil {
		return err
	}
	rep, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	res := rep.Multi
	fmt.Fprintf(out, "policy            %s\n", devs[0].Policy.Name())
	fmt.Fprintf(out, "devices           %d\n", n)
	fmt.Fprintf(out, "allocator         %s\n", res.Allocator)
	fmt.Fprintf(out, "edge budget       %.0f %s\n", float64(n)*scn.ServiceRate, unit)
	if net.Factor != nil {
		fmt.Fprintf(out, "network           %s\n", net.Factor.Name())
	}
	fmt.Fprintf(out, "fleet verdict     %s\n", rep.Verdict)
	fmt.Fprintf(out, "mean utility      %.4f\n", res.MeanTimeAvgUtility)
	fmt.Fprintf(out, "total avg backlog %.0f\n", res.TotalTimeAvgBacklog)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "device  verdict     avg backlog  completed  mean sojourn")
	for i, r := range res.PerDevice {
		verdict, err := r.Verdict()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%6d  %-10s  %11.0f  %9d  %12.2f\n",
			i, verdict, r.TimeAvgBacklog, len(r.Completed), r.MeanSojourn)
	}
	if chart {
		tab := trace.NewTable("Time step", len(res.PerDevice[0].Backlog))
		for i, r := range res.PerDevice {
			if err := tab.Add(trace.Series{Name: fmt.Sprintf("device %d", i), Values: r.Backlog}); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		if err := tab.RenderASCII(out, trace.ChartOptions{Title: "Per-device queue backlog"}); err != nil {
			return err
		}
	}
	return sinks.Export(out)
}

// buildPolicy resolves -policy through the shared CLI grammar
// (cmd/internal/names): the sweep policy names — learning-layer
// predictive/delayed forms included — plus fixed:N.
func buildPolicy(name string, vOverride float64, scn *qarv.Scenario, seed uint64) (qarv.Policy, error) {
	return names.Policy(scn, name, vOverride, seed)
}
