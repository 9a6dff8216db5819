// Offload: the paper's delay model moved onto the network. Instead of
// rendering on the device, each frame's octree stream (occupancy bytes +
// delta-coded colors) is shipped over a finite uplink to an edge renderer.
// The controller's workload a(d) becomes the encoded stream size bytes(d)
// and the service rate the uplink bandwidth — the same closed-form
// decision of Eq. (3) now stabilizes the *transmit* queue. The run is
// qarv.SharedUplink with one device: the uplink's whole bandwidth serves
// that device's queue.
//
// Mid-session the uplink loses half its bandwidth (handover/congestion);
// the controller sheds depth, keeps latency bounded, and recovers.
//
// Run: go run ./examples/offload
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
	// The drop is a factor on the calibrated uplink bandwidth: ×1, then
	// ×0.5 for slots 900-1200, then ×1 again.
	drop, err := qarv.NewTraceBandwidth([]qarv.TracePoint{
		{Slot: 0, BytesPerSlot: 1},
		{Slot: 900, BytesPerSlot: 0.5},
		{Slot: 1200, BytesPerSlot: 1},
	}, 0)
	if err != nil {
		return err
	}
	res, err := qarv.SharedUplink(context.Background(), qarv.SharedUplinkParams{
		ScenarioParams: qarv.ScenarioParams{
			Samples:  60_000,
			Slots:    3000,
			KneeSlot: 250,
			Seed:     11,
		},
		Devices:  1,
		Dynamics: drop, // uplink halves for 300 slots
	})
	if err != nil {
		return err
	}
	dev, row := res.Multi.PerDevice[0], res.PerDevice[0]

	// window is the mean depth over slots [lo, hi): over the whole run,
	// and around the bandwidth drop.
	window := func(lo, hi int) float64 {
		var s float64
		for _, d := range dev.Depth[lo:hi] {
			s += float64(d)
		}
		return s / float64(hi-lo)
	}

	fmt.Println("edge-offload session (octree streams over an emulated uplink)")
	fmt.Printf("uplink bandwidth    %.0f B/slot (drops to 50%% during slots 900-1200)\n", res.Bandwidth)
	fmt.Printf("stream sizes        depth 5: %d B ... depth 10: %d B\n", res.Bytes[5], res.Bytes[10])
	fmt.Printf("calibrated V        %.4g\n", res.V)
	fmt.Println()
	fmt.Printf("verdict             %s\n", row.Verdict)
	fmt.Printf("mean depth          %.2f\n", window(0, len(dev.Depth)))
	fmt.Printf("frames delivered    %d (lost %d to link-layer loss, %d still queued)\n",
		row.Delivered, row.Lost, len(dev.Depth)-row.Delivered-row.Lost)
	fmt.Printf("mean latency        %.2f slots\n", res.MeanLatency)
	fmt.Printf("p95 latency         %.2f slots\n", res.P95Latency)
	fmt.Println()
	fmt.Printf("mean depth before drop   %.2f\n", window(400, 900))
	fmt.Printf("mean depth during drop   %.2f\n", window(950, 1200))
	fmt.Printf("mean depth recovered     %.2f  (backlog drained, quality restored)\n", window(2500, 3000))
	fmt.Println()
	fmt.Println("The bytes-domain controller behaves exactly like the on-device one:")
	fmt.Println("max quality while the uplink is cheap, graceful depth shedding when")
	fmt.Println("bandwidth vanishes, recovery when it returns — all from Eq. (3).")
	return nil
}
