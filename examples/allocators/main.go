// Allocators: the shared-edge budget split as a first-class policy.
//
// The paper's multi-device claim (§II) keeps every device fully
// distributed — each controller sees only its own backlog. But the edge
// server still decides how its per-slot budget is divided, and related
// work (Ren et al.; Chen et al., "Learn to Optimize Resource Allocation
// under QoS Constraint of AR") shows that split is the lever. This
// walkthrough builds a deliberately unfair fleet — one heavy device
// (3 frames/slot at 2× cost) among seven light ones — and runs it under
// every allocator:
//
//   - equal-split: the paper's information-free baseline. The heavy
//     device's minimum demand exceeds budget/8, so it diverges.
//   - proportional-backlog: shares follow queue lengths; the heavy
//     device attracts budget and the fleet stabilizes.
//   - max-weight: longest-queue-first, work-conserving; stabilizes
//     whenever any split can.
//   - weighted-round-robin: deficit rounds with demand-proportional
//     weights.
//
// Each device keeps its own drift-plus-penalty controller on purely
// local state throughout — only the server-side split changes.
//
// Run: go run ./examples/allocators
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
	scn, err := qarv.NewScenario(qarv.ScenarioParams{
		Samples:  60_000,
		Slots:    1000,
		KneeSlot: 250,
		Seed:     5,
	})
	if err != nil {
		return err
	}

	// The canonical heterogeneous fleet (the default of allocator cells:
	// qarv.HeterogeneousSpecs(8) against 1.25× its min-depth demand) under
	// every allocator, one sweep cell each. Round-robin gets
	// demand-proportional weights: with equal weights its share is
	// budget/8 by design, which rightly starves the heavy device.
	specs := qarv.HeterogeneousSpecs(8)
	weights := make([]float64, len(specs))
	for i, spec := range specs {
		weights[i] = float64(spec.ArrivalsPerSlot) * spec.CostScale
	}
	axis := qarv.AxisAllocator("equal", "proportional", "maxweight")
	axis.Points = append(axis.Points, qarv.SweepAxisPoint{
		Label: "wrr",
		Apply: func(c *qarv.SweepCell) error {
			c.NewAllocator = func() (qarv.Allocator, error) {
				return qarv.NewWeightedRoundRobin(weights...), nil
			}
			return nil
		},
	})
	sw, err := qarv.NewSweep(scn, axis)
	if err != nil {
		return err
	}
	sw.Slots = 2000
	grid, err := sw.Run(context.Background())
	if err != nil {
		return err
	}

	fmt.Println("8 devices, one edge budget; device 0 is heavy (3 frames/slot at 2x cost)")
	fmt.Println()
	for _, row := range grid.Rows {
		multi := row.Detail.Multi
		fmt.Printf("%-22s diverging=%d  total avg backlog=%10.0f  fleet mean sojourn=%6.2f slots\n",
			multi.Allocator, row.Verdicts.Diverging, row.Backlog, row.MeanSojourn)
		for i, d := range multi.PerDevice {
			verdict, err := d.Verdict()
			if err != nil {
				return err
			}
			marker := " "
			if verdict == qarv.VerdictDiverging {
				marker = "!"
			}
			fmt.Printf("  %s device %d: %-11s avg backlog %10.0f  mean sojourn %6.2f\n",
				marker, i, verdict, d.TimeAvgBacklog, d.MeanSojourn)
		}
		fmt.Println()
	}

	// The same subsystem drives ad-hoc sessions: WithAllocator swaps the
	// split on any multi-device run.
	devs := make([]qarv.Device, 4)
	for i := range devs {
		ctrl, err := scn.Controller()
		if err != nil {
			return err
		}
		devs[i] = qarv.Device{
			Policy:   ctrl,
			Cost:     scn.Cost,
			Utility:  scn.Utility,
			Arrivals: &qarv.DeterministicArrivals{PerSlot: 1},
		}
	}
	sess, err := qarv.NewSession(
		qarv.WithScenario(scn),
		qarv.WithDevices(devs...),
		qarv.WithAllocator(qarv.NewMaxWeight()),
	)
	if err != nil {
		return err
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("session API: 4 homogeneous devices under %s -> %s, mean utility %.3f\n",
		rep.Multi.Allocator, rep.Verdict, rep.Multi.MeanTimeAvgUtility)

	// And the shared-uplink offload scenario: the same fleet contends
	// for one emulated uplink's serialization bandwidth.
	shared, err := qarv.SharedUplink(qarv.SharedUplinkParams{
		ScenarioParams: qarv.ScenarioParams{
			Samples:  60_000,
			Slots:    800,
			KneeSlot: 200,
			Seed:     5,
		},
		Devices:   3,
		Allocator: qarv.NewMaxWeight(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("shared uplink: %d devices on %.0f bytes/slot under %s -> mean latency %.2f slots (p95 %.2f), %d lost\n",
		len(shared.PerDevice), shared.Bandwidth, shared.Allocator,
		shared.MeanLatency, shared.P95Latency, shared.LossCount)
	return nil
}
