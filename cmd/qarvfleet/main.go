// Command qarvfleet runs the sharded fleet-simulation engine: N
// independent device sessions (10k–1M) drawn from a weighted profile
// mix, with optional churn, summarized through streaming quantile
// sketches — memory stays O(shards) however long the horizon.
//
// Usage:
//
//	qarvfleet [-n N] [-shards S] [-slots T] [-churn C] [-seed SEED]
//	          [-mix name:weight,name:weight,...] [-acc A]
//	          [-net class:weight,class:weight,...]
//	          [-content asset:weight,asset:weight,...]
//	          [-samples N] [-service-frac F] [-json]
//	          [-metrics FILE] [-trace FILE]
//
// Profile names available in -mix (all built over one calibrated
// scenario):
//
//	proposed        drift-plus-penalty controller at the calibrated V
//	lowv / highv    proposed at 0.1× / 10× the calibrated V
//	max / min       the paper's only max-Depth / only min-Depth controls
//	threshold       two-watermark hysteresis around the switch backlog
//	random          uniform-random depth (seeded per session)
//	poisson         proposed + Poisson(1) arrivals (seeded per session)
//	bursty          proposed + on-off burst arrivals (2 frames / 2 slots)
//	noisy           proposed + ±10% Gaussian service jitter per session
//	offload         proposed in the bytes domain: the capture's measured
//	                stream sizes against the uplink bandwidth a
//	                one-device SharedUplink calibrates
//	oracle          best fixed depth for the calibrated service rate
//	delayed         proposed observing the backlog a control-loop delay
//	                stale (the display-update lag regime)
//	predictive      proposed with the learning layer's backlog
//	                extrapolation one delay ahead
//	predictive-delayed  both: prediction across the same delayed loop
//
// The default mix models a mostly-well-provisioned deployment:
// proposed:0.7,noisy:0.15,bursty:0.15.
//
// -net crosses the policy mix with a weighted network-class mix: every
// (profile, class) pair becomes a fleet device class whose service is
// modulated by the network (weights multiply). Classes:
//
//	static          the profile's own service, unchanged (the default)
//	markov          Gilbert–Elliott good/bad fading: ×1 in the good
//	                state, ×0.3 in the bad (mean dwells 20 / 4 slots),
//	                seeded per session
//	trace           a built-in diurnal-style piecewise factor pattern;
//	                trace:FILE replays a CSV/JSON trace normalized to
//	                its peak, so measured bytes/slot captures and
//	                hand-written factor patterns (peak 1) both scale
//	                the profile's service sensibly
//	handoff         mobility: mean 250-slot cell dwells, 4-slot outages,
//	                new-cell capacity scale drawn from [0.7, 1.2]
//
// Example: -net static:0.5,markov:0.3,handoff:0.2 runs every policy
// class under all three network regimes at once — the mixed
// static/Markov/trace/handoff fleets the dynamic-network subsystem
// exists for.
//
// -content replaces -mix with measured content classes: each asset
// (synthetic name or .ply file) runs through the content pipeline once
// and its sessions drive the proposed controller over the asset's
// measured stream-byte and PSNR ladders, service calibrated in the
// bytes domain. -net still crosses network classes over content
// classes. Example: -content loot:0.6,soldier:0.4.
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
	"qarv/internal/delay"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvfleet:", err)
		os.Exit(1)
	}
}

// defaultMix is -mix's default device-class mix.
const defaultMix = "proposed:0.7,noisy:0.15,bursty:0.15"

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qarvfleet", flag.ContinueOnError)
	n := fs.Int("n", 10_000, "concurrent device sessions (seats)")
	shards := fs.Int("shards", 0, "worker shards (0 = GOMAXPROCS)")
	slots := fs.Int("slots", 1000, "horizon per seat (slots)")
	churn := fs.Float64("churn", 0, "per-slot departure hazard in [0,1); departures backfill")
	seed := fs.Uint64("seed", 1, "fleet seed (deterministic report for a given spec+seed)")
	mix := fs.String("mix", defaultMix, "weighted profile mix: name:weight,...")
	netMix := fs.String("net", "static", "weighted network-class mix crossed with -mix: "+names.NetworkUsage+" (class:weight,...)")
	acc := fs.Float64("acc", 0.01, "quantile-sketch relative accuracy")
	samples := fs.Int("samples", 60_000, "synthetic capture surface samples (scenario calibration)")
	serviceFrac := fs.Float64("service-frac", 0.6, "service rate position in (a(d_max-1), a(d_max))")
	jsonOut := fs.Bool("json", false, "emit the full FleetReport as JSON")
	contentMix := fs.String("content", "", "weighted content classes asset[:weight],... — each class's sessions run over that asset's measured byte/PSNR ladders (replaces -mix)")
	sinks := telemetry.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sinks.Resolve()
	mixSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "mix" {
			mixSet = true
		}
	})
	if *contentMix != "" && mixSet {
		return fmt.Errorf("-content and -mix are mutually exclusive: content classes replace the policy mix")
	}

	var profiles []qarv.Profile
	if *contentMix != "" {
		var err error
		profiles, err = parseContentMix(*contentMix, *samples, *serviceFrac, *seed)
		if err != nil {
			return err
		}
	} else {
		scn, err := qarv.NewScenario(qarv.ScenarioParams{
			Samples:         *samples,
			ServiceFraction: *serviceFrac,
			Seed:            *seed,
		})
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		profiles, err = parseMix(scn, *mix)
		if err != nil {
			return err
		}
	}
	// Calibration isn't cancelable; honor a Ctrl-C that arrived during it.
	if err := ctx.Err(); err != nil {
		return err
	}
	classes, err := parseNetMix(*netMix)
	if err != nil {
		return err
	}
	profiles = crossNetwork(profiles, classes)
	fl, err := qarv.NewFleet(qarv.FleetSpec{
		Sessions: *n,
		Slots:    *slots,
		Shards:   *shards,
		Churn:    *churn,
		Seed:     *seed,
		Accuracy: *acc,
		Profiles: profiles,
		Metrics:  sinks.Registry,
		Recorder: sinks.Recorder,
	})
	if err != nil {
		return err
	}
	rep, err := fl.Run(ctx)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(out, rep)
	}
	return sinks.Export(out, os.Stderr)
}

// parseContentMix builds content-backed device classes from
// "asset[:weight],asset[:weight],...": each asset (synthetic name or
// .ply file) is measured once through the content pipeline and becomes
// a fleet class running the proposed controller over that asset's
// measured stream-byte and PSNR ladders, service calibrated in the
// bytes domain. Weights split the fleet across assets.
func parseContentMix(mix string, samples int, serviceFrac float64, seed uint64) ([]qarv.Profile, error) {
	var out []qarv.Profile
	for _, entry := range strings.Split(mix, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		asset, weightStr, found := strings.Cut(entry, ":")
		weight := 1.0
		if found {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("content entry %q: bad weight: %w", entry, err)
			}
			weight = w
		}
		prof, err := qarv.LoadContent(qarv.ContentConfig{
			Asset:   strings.TrimSpace(asset),
			Samples: samples,
			Seed:    seed,
		})
		if err != nil {
			return nil, fmt.Errorf("content entry %q: %w", entry, err)
		}
		scn, err := qarv.NewContentScenario(qarv.ScenarioParams{ServiceFraction: serviceFrac}, prof)
		if err != nil {
			return nil, fmt.Errorf("content entry %q: %w", entry, err)
		}
		out = append(out, scn.FleetProfile(prof.Name(), weight, 1))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -content %q", mix)
	}
	return out, nil
}

// parseMix builds the profile list from "name:weight,name:weight,...".
func parseMix(scn *qarv.Scenario, mix string) ([]qarv.Profile, error) {
	var out []qarv.Profile
	for _, entry := range strings.Split(mix, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, weightStr, found := strings.Cut(entry, ":")
		weight := 1.0
		if found {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("mix entry %q: bad weight: %w", entry, err)
			}
			weight = w
		}
		p, err := buildProfile(scn, strings.TrimSpace(name), weight)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -mix %q", mix)
	}
	return out, nil
}

// buildProfile maps a mix name to a device class over the calibrated
// scenario. Every class starts from the scenario-derived proposed
// profile and swaps the dimension it varies (policy, V, arrivals,
// service, or the cost domain).
func buildProfile(scn *qarv.Scenario, name string, weight float64) (qarv.Profile, error) {
	depths := scn.Params.Depths
	p := scn.FleetProfile(name, weight, 1)
	switch name {
	case "proposed":
	case "lowv":
		p = scn.FleetProfile(name, weight, 0.1)
	case "highv":
		p = scn.FleetProfile(name, weight, 10)
	case "random":
		p.NewPolicy = func(rng *qarv.RNG) (qarv.Policy, error) {
			return qarv.NewRandomPolicy(depths, rng.Uint64())
		}
	case "poisson":
		p.NewArrivals = func(rng *qarv.RNG) qarv.ArrivalProcess {
			return &qarv.PoissonArrivals{Mean: 1, RNG: rng}
		}
	case "bursty":
		p.NewArrivals = func(*qarv.RNG) qarv.ArrivalProcess {
			return &qarv.OnOffArrivals{OnSlots: 2, OffSlots: 2, PerSlotOn: 2}
		}
	case "noisy":
		rate := scn.ServiceRate
		p.NewService = func(rng *qarv.RNG) qarv.ServiceProcess {
			return &qarv.NoisyService{Mean: rate, Std: 0.1 * rate, RNG: rng}
		}
	case "offload":
		// The same capture calibrated in the bytes domain: measured
		// stream sizes against the uplink bandwidth a one-device
		// SharedUplink sizes.
		bs, err := qarv.NewByteScenario(scn.Params)
		if err != nil {
			return p, fmt.Errorf("offload: %w", err)
		}
		return bs.FleetProfile(name, weight, 1), nil
	default:
		// Anything else resolves through the shared CLI policy grammar
		// (cmd/internal/names): max, min, threshold, oracle, predictive,
		// delayed, predictive-delayed, … Parameterized forms are bare
		// here (defaults apply): the ":" separates the mix weight.
		spec, err := names.Spec(name)
		if err != nil {
			return p, fmt.Errorf("unknown profile %q (see qarvfleet -h for the list): %w", name, err)
		}
		p.NewPolicy = func(rng *qarv.RNG) (qarv.Policy, error) {
			return spec.New(scn, rng)
		}
	}
	return p, nil
}

// netClass is one entry of the -net mix: a named network shape that
// modulates a profile's service process (a nil Factor leaves it
// untouched).
type netClass struct {
	name   string
	weight float64
	net    qarv.SweepNetwork
}

// parseNetMix builds the network-class list from
// "class:weight,class:weight,...". Classes: static, markov,
// trace[:FILE], handoff. Trace files hold slot,factor pairs (CSV or
// JSON); factors scale each profile's own service. Parsing is
// positional: "class", "class:weight", "trace:FILE",
// "trace:FILE:weight" — for the ambiguous "trace:X" form a numeric X
// is a weight (name trace files with an extension).
func parseNetMix(mix string) ([]netClass, error) {
	var out []netClass
	for _, entry := range strings.Split(mix, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		name := parts[0]
		weight := 1.0
		file := ""
		switch {
		case len(parts) == 1:
		case len(parts) == 2:
			if w, err := strconv.ParseFloat(parts[1], 64); err == nil {
				weight = w
			} else if name == "trace" {
				file = parts[1]
			} else {
				return nil, fmt.Errorf("net entry %q: bad weight %q", entry, parts[1])
			}
		case len(parts) == 3 && name == "trace":
			file = parts[1]
			w, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("net entry %q: bad weight %q", entry, parts[2])
			}
			weight = w
		default:
			return nil, fmt.Errorf("net entry %q: want class[:weight] or trace:FILE[:weight]", entry)
		}
		token := name
		if file != "" {
			token += ":" + file
		}
		net, err := names.Network(token)
		if err != nil {
			return nil, err
		}
		out = append(out, netClass{name: name, weight: weight, net: net})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -net %q", mix)
	}
	return out, nil
}

// crossNetwork crosses the policy mix with the network mix: every
// (profile, class) pair becomes one fleet device class (weights
// multiply), the class's factor process modulating the profile's own
// service. A pure static -net leaves the profiles untouched, so default
// runs are unchanged. Each session's factor draws from a child of the
// session's service RNG, split after the inner service is built, so
// mixes stay byte-deterministic per seed at any shard count.
func crossNetwork(profiles []qarv.Profile, classes []netClass) []qarv.Profile {
	if len(classes) == 1 && classes[0].net.Factor == nil {
		return profiles
	}
	out := make([]qarv.Profile, 0, len(profiles)*len(classes))
	for _, p := range profiles {
		for _, c := range classes {
			combined := p
			combined.Weight = p.Weight * c.weight
			if factor := c.net.Factor; factor != nil {
				combined.Name = p.Name + "+" + c.name
				newInner := p.NewService
				combined.NewService = func(rng *qarv.RNG) qarv.ServiceProcess {
					inner := newInner(rng)
					return &qarv.ModulatedService{Inner: inner, Factor: delay.ForRun(factor, rng.Split)}
				}
			}
			out = append(out, combined)
		}
	}
	return out
}

func printReport(out io.Writer, rep *qarv.FleetReport) {
	fmt.Fprintf(out, "seats             %d\n", rep.Seats)
	fmt.Fprintf(out, "slots/seat        %d\n", rep.Slots)
	fmt.Fprintf(out, "shards            %d\n", rep.Shards)
	fmt.Fprintf(out, "churn             %g\n", rep.Churn)
	fmt.Fprintf(out, "sessions run      %d (%d departures)\n", rep.Total.Sessions, rep.Total.Departures)
	fmt.Fprintf(out, "device-slots      %d\n", rep.Total.DeviceSlots)
	fmt.Fprintf(out, "elapsed           %v\n", rep.Elapsed)
	fmt.Fprintf(out, "throughput        %.0f device-slots/sec\n", rep.DeviceSlotsPerSec)
	fmt.Fprintln(out)
	fmt.Fprintln(out, "profile      sessions   frames      P50 sjrn  P95 sjrn  P99 sjrn  mean util  P95 backlog  div/conv/stab")
	rows := append([]qarv.FleetProfileReport{rep.Total}, rep.PerProfile...)
	for i, p := range rows {
		name := p.Name
		if i == 0 {
			name = "ALL"
		}
		fmt.Fprintf(out, "%-12s %8d  %9d  %8.1f  %8.1f  %8.1f  %9.3f  %11.0f  %d/%d/%d\n",
			name, p.Sessions, p.FramesCompleted,
			p.Sojourn.P50, p.Sojourn.P95, p.Sojourn.P99,
			p.Utility.Mean, p.Backlog.P95,
			p.Verdicts.Diverging, p.Verdicts.Converged, p.Verdicts.Stabilized)
	}
}
