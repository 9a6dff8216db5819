// Networks: the dynamic-network subsystem end to end. Every other
// walkthrough idealizes the network as a fixed-capacity pipe; real AR
// links fade, follow measured traces, and hand off between cells — the
// regime the paper's "network-based applications" motivation and the
// related edge-MAR work actually target. This example runs the same
// calibrated controller through four network regimes, three ways:
//
//  1. Single sessions whose *service* is the network: the network
//     processes (constant, Markov good/bad fading, piecewise trace
//     replay, mobility handoffs) are service processes, so WithService
//     plugs them straight into the slot loop.
//  2. A one-device offload run whose *uplink* is the network:
//     SharedUplinkParams.Dynamics, a factor on the calibrated
//     bandwidth, sets the uplink's rate every slot while the controller
//     stabilizes the transmit queue in bytes.
//  3. The volatility ablation: a sweep over NetworkMarkov shapes, a
//     fleet per volatility point under a mean-preserving capacity
//     spread — same average bandwidth, rising variance — showing quality
//     degrade and tail backlog grow monotonically with volatility.
//
// Run: go run ./examples/networks
package main

import (
	"context"
	"fmt"
	"log"

	"qarv"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	scn, err := qarv.NewScenario(qarv.ScenarioParams{Samples: 60_000})
	if err != nil {
		return err
	}
	rate := scn.ServiceRate
	fmt.Printf("calibrated: service %.0f points/slot, V* = %.3g\n\n", rate, scn.V)

	// --- 1. One device, four networks -----------------------------------
	//
	// Each regime keeps the *mean* capacity at the calibrated rate; what
	// changes is how the capacity moves. The processes carry no RNG here
	// — WithSeed reaches them through the same Reseed hook as every
	// other stochastic component, so each run is reproducible.
	trace, err := qarv.NewTraceBandwidth([]qarv.TracePoint{
		{Slot: 0, BytesPerSlot: 1.2 * rate},
		{Slot: 200, BytesPerSlot: 0.8 * rate},
		{Slot: 400, BytesPerSlot: 1.0 * rate},
	}, 600)
	if err != nil {
		return err
	}
	networks := []struct {
		name string
		svc  qarv.ServiceProcess
	}{
		{"static", &qarv.ConstantService{Rate: rate}},
		{"markov", &qarv.MarkovBandwidth{
			GoodRate: 1.3 * rate, BadRate: 0.7 * rate,
			PGoodBad: 0.1, PBadGood: 0.1,
		}},
		{"trace", trace},
		{"handoff", &qarv.HandoffBandwidth{
			BaseRate:          rate,
			MeanIntervalSlots: 200,
			OutageSlots:       3,
			ScaleLo:           0.85,
			ScaleHi:           1.15,
		}},
	}
	fmt.Println("network   verdict      time-avg utility  time-avg backlog")
	for _, n := range networks {
		s, err := qarv.NewSession(
			qarv.WithScenario(scn),
			qarv.WithService(n.svc),
			qarv.WithSeed(7),
		)
		if err != nil {
			return err
		}
		rep, err := s.Run(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %-12s %16.3f %17.0f\n",
			n.name, rep.Verdict, rep.TimeAvgUtility, rep.TimeAvgBacklog)
	}

	// --- 2. Offload over a fading uplink --------------------------------
	//
	// The controller now ships octree streams (bytes) over the emulated
	// link; Dynamics, a factor on the calibrated bandwidth, sets how many
	// queued bytes the uplink sends each slot (an outage slot sends
	// none), and the controller watches the bytes still queued. This
	// chain is good three slots in four, so it averages 1.1× the static
	// bandwidth.
	fmt.Println()
	for _, dyn := range []qarv.ServiceProcess{nil, &qarv.MarkovBandwidth{
		GoodRate: 1.3, BadRate: 0.5,
		PGoodBad: 0.05, PBadGood: 0.15,
	}} {
		res, err := qarv.SharedUplink(ctx, qarv.SharedUplinkParams{
			ScenarioParams: qarv.ScenarioParams{Samples: 60_000, KneeSlot: 200, Seed: 7},
			Devices:        1,
			Dynamics:       dyn,
		})
		if err != nil {
			return err
		}
		network := "static"
		if dyn != nil {
			network = dyn.Name()
		}
		var depthSum float64
		depths := res.Multi.PerDevice[0].Depth
		for _, d := range depths {
			depthSum += float64(d)
		}
		fmt.Printf("offload uplink %-9s mean depth %.2f | mean latency %.1f slots | verdict %s\n",
			network, depthSum/float64(len(depths)), res.MeanLatency, res.PerDevice[0].Verdict)
	}
	fmt.Println("the fading uplink averages 1.1x the static bandwidth: the same controller rides")
	fmt.Println("its good stretches deeper and delivers sooner, while the backlog swings with the")
	fmt.Println("fades — the tail-slope verdict reads the last swing up as diverging.")

	// --- 3. The volatility cost curve -----------------------------------
	//
	// Mean-preserving spread: every point has the *same* average
	// capacity; only the variance differs. Quality still degrades and
	// the tail backlog still grows — bandwidth volatility is a resource
	// cost of its own, which is why dynamics belong in every scenario.
	// Every cell is pinned to one seed, so each volatility point replays
	// the same 128-session population.
	vols := []float64{0, 0.3, 0.6, 0.9}
	nets := make([]qarv.SweepNetwork, len(vols))
	for i, v := range vols {
		nets[i] = qarv.NetworkMarkov(v)
	}
	sw, err := qarv.NewSweep(scn, qarv.AxisNetwork(nets...))
	if err != nil {
		return err
	}
	sw.Backend = qarv.BackendFleet(128)
	sw.Slots = 2 * scn.Params.Slots
	sw.Configure(func(c *qarv.SweepCell) error { c.Seed = 1; return nil })
	grid, err := sw.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Println("\nvolatility  mean utility  P95 backlog  diverging/sessions")
	for i, r := range grid.Rows {
		fmt.Printf("%10.1f %13.3f %12.0f  %d/%d\n",
			vols[i], r.Utility, r.P95Backlog, r.Verdicts.Diverging, r.Sessions)
	}
	return nil
}
