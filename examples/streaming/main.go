// Streaming: an AR telepresence session under realistic stress — bursty
// frame arrivals (talk spurts) and a mid-session thermal-throttling window
// — the workload the paper's introduction motivates (real-time AR on
// mobile devices with time-varying compute).
//
// The example shows the controller absorbing both disturbances: depth
// drops during bursts and throttling, recovers afterwards, and the
// per-frame latency distribution stays bounded while "only max-Depth"
// would have overflowed.
//
// Run: go run ./examples/streaming
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
	// Calibrated scenario (synthetic capture + octree profile + V).
	scn, err := qarv.NewScenario(qarv.ScenarioParams{
		Samples:  60_000,
		Slots:    2400,
		KneeSlot: 200,
		Seed:     42,
	})
	if err != nil {
		return err
	}
	ctrl, err := scn.Controller()
	if err != nil {
		return err
	}

	// Telepresence traffic: 30-slot talk spurts at 2 frames/slot, 10-slot
	// pauses. Average load 1.5 frames/slot — heavier than Fig. 2.
	arrivals := &qarv.OnOffArrivals{OnSlots: 30, OffSlots: 10, PerSlotOn: 2}

	// Device capacity: jittery, with a thermal-throttling window at 60%
	// capacity between slots 1200 and 1600 — a three-point factor trace.
	throttle, err := qarv.NewTraceBandwidth([]qarv.TracePoint{
		{Slot: 0, BytesPerSlot: 1},
		{Slot: 1200, BytesPerSlot: 0.6},
		{Slot: 1600, BytesPerSlot: 1},
	}, 0)
	if err != nil {
		return err
	}
	service := &qarv.ModulatedService{
		Inner: &qarv.NoisyService{
			Mean: 2.2 * scn.ServiceRate, // headroom for the 1.5×-load bursts
			Std:  0.1 * scn.ServiceRate,
			RNG:  qarv.NewRNG(7),
		},
		Factor: throttle,
	}

	// The Session composes the calibrated scenario with the stressed
	// arrivals and service; an observer watches the throttle window's
	// worst backlog live instead of post-processing the trajectory.
	var worstThrottled float64
	sess, err := qarv.NewSession(
		qarv.WithScenario(scn),
		qarv.WithPolicy(ctrl),
		qarv.WithArrivals(arrivals),
		qarv.WithService(service),
		qarv.WithObserver(func(e qarv.SlotEvent) {
			if e.Slot >= 1200 && e.Slot < 1600 && e.Backlog > worstThrottled {
				worstThrottled = e.Backlog
			}
		}),
	)
	if err != nil {
		return err
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		return err
	}
	res := rep.Sim

	fmt.Printf("session verdict        %s\n", rep.Verdict)
	fmt.Printf("worst throttled queue  %.0f work units\n", worstThrottled)
	fmt.Printf("time-avg utility       %.3f\n", res.TimeAvgUtility)
	fmt.Printf("frames completed       %d\n", len(res.Completed))
	fmt.Printf("mean frame latency     %.2f slots\n", res.MeanSojourn)

	// Latency distribution.
	var p95 float64
	if len(res.Completed) > 0 {
		lat := make([]int, len(res.Completed))
		for i, c := range res.Completed {
			lat[i] = c.Sojourn
		}
		p95 = percentileInt(lat, 0.95)
	}
	fmt.Printf("p95 frame latency      %.0f slots\n", p95)

	// How the controller responded to the throttling window.
	fmt.Printf("mean depth normal      %.2f\n", meanDepth(res.Depth[400:1200]))
	fmt.Printf("mean depth throttled   %.2f  (slots 1200-1600, 60%% capacity)\n",
		meanDepth(res.Depth[1200:1600]))
	fmt.Printf("mean depth recovered   %.2f\n", meanDepth(res.Depth[1700:]))

	fmt.Println("\nDepth dipped through the throttle window and recovered after —")
	fmt.Println("quality adapted instead of the queue overflowing.")
	return nil
}

func meanDepth(depths []int) float64 {
	if len(depths) == 0 {
		return 0
	}
	var s float64
	for _, d := range depths {
		s += float64(d)
	}
	return s / float64(len(depths))
}

func percentileInt(xs []int, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Insertion sort is fine at example scale.
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx])
}
