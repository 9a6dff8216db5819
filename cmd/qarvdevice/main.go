// Command qarvdevice runs the device side of a live qarv session against
// a qarvedge server: it generates a synthetic capture, encodes the octree
// stream at every candidate depth, and streams frames with the
// drift-plus-penalty controller deciding each frame's depth from the live
// unacknowledged-byte backlog. With -devices N it becomes a fleet
// driver: N independent controller loops over N real TCP connections,
// all sharing the edge's uplink budget — the end-to-end socket version
// of the simulator's multi-device scenario.
//
// Usage:
//
//	qarvdevice -addr HOST:PORT [-devices 1] [-frames 300] [-interval 10ms]
//	           [-samples 60000] [-knee 30] [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"qarv"
	"qarv/internal/experiments"
	"qarv/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvdevice:", err)
		os.Exit(1)
	}
}

// deviceResult is one controller loop's outcome.
type deviceResult struct {
	stats   stream.ClientStats
	hist    map[int]int
	drained bool
	err     error
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qarvdevice", flag.ContinueOnError)
	addr := fs.String("addr", "", "edge server address (required)")
	devices := fs.Int("devices", 1, "concurrent device sessions, each with its own connection and controller")
	frames := fs.Int("frames", 300, "frames to stream per device")
	interval := fs.Duration("interval", 10*time.Millisecond, "frame period")
	samples := fs.Int("samples", 60_000, "synthetic capture surface samples")
	knee := fs.Float64("knee", 30, "V-calibration knee (frames)")
	seed := fs.Int64("seed", 1, "capture seed")
	character := fs.String("character", "longdress", "synthetic character preset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return errors.New("missing -addr (start cmd/qarvedge first)")
	}
	if *devices < 1 {
		return errors.New("-devices must be at least 1")
	}

	// The byte scenario calibrates the controller exactly as the
	// simulator's uplink runs do: cost a(d) is the measured stream size of
	// depth d, and the service rate sits ServiceFraction of the way from
	// bytes(d_max−1) to bytes(d_max). The live backlog supplies the actual
	// feedback.
	scn, err := qarv.NewByteScenario(qarv.ScenarioParams{
		Character: *character,
		Samples:   *samples,
		Seed:      uint64(*seed),
		KneeSlot:  *knee,
	})
	if err != nil {
		return err
	}
	depths := scn.Params.Depths
	// Per-depth encodings of the frame the scenario was calibrated on,
	// shared read-only by every device.
	_, tree, err := experiments.Capture(scn.Params)
	if err != nil {
		return err
	}
	payloads := make(map[int][]byte, len(depths))
	for _, d := range depths {
		p, err := tree.SerializeWithColorsBytes(d)
		if err != nil {
			return err
		}
		payloads[d] = p
	}

	fmt.Fprintf(out, "streaming %d devices x %d frames to %s (V=%.4g)\n", *devices, *frames, *addr, scn.V)

	results := make([]deviceResult, *devices)
	var wg sync.WaitGroup
	for dev := 0; dev < *devices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			results[dev] = runDevice(*addr, scn, payloads, *frames, *interval)
		}(dev)
	}
	wg.Wait()

	// Aggregate across the fleet.
	var agg stream.ClientStats
	hist := make(map[int]int, len(depths))
	drained, failed := 0, 0
	var firstErr error
	var latencySum time.Duration
	var latencyN int
	var shareSum float64
	for _, r := range results {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		agg.SentFrames += r.stats.SentFrames
		agg.AckedFrames += r.stats.AckedFrames
		agg.SentBytes += r.stats.SentBytes
		agg.AckedBytes += r.stats.AckedBytes
		agg.AckRegressions += r.stats.AckRegressions
		if r.stats.MaxLatency > agg.MaxLatency {
			agg.MaxLatency = r.stats.MaxLatency
		}
		latencySum += r.stats.MeanLatency * time.Duration(r.stats.AckedFrames)
		latencyN += r.stats.AckedFrames
		shareSum += r.stats.AllocatedBps
		for d, n := range r.hist {
			hist[d] += n
		}
		if r.drained {
			drained++
		}
	}
	allDrained := failed == 0 && drained == *devices
	fmt.Fprintf(out, "sent %d frames (%d bytes), acked %d, drained=%v (%d/%d sessions, %d failed)\n",
		agg.SentFrames, agg.SentBytes, agg.AckedFrames, allDrained, drained, *devices, failed)
	if latencyN > 0 {
		agg.MeanLatency = latencySum / time.Duration(latencyN)
	}
	fmt.Fprintf(out, "round trip mean %v max %v\n", agg.MeanLatency, agg.MaxLatency)
	if ok := *devices - failed; ok > 0 && shareSum > 0 {
		fmt.Fprintf(out, "allocated share mean %.0f B/s across %d sessions\n", shareSum/float64(ok), ok)
	}
	fmt.Fprint(out, "depth histogram  ")
	for _, d := range depths {
		if hist[d] > 0 {
			fmt.Fprintf(out, "%d:%d  ", d, hist[d])
		}
	}
	fmt.Fprintln(out)
	if agg.AckRegressions > 0 {
		return fmt.Errorf("%d ack regressions observed (server accounting bug)", agg.AckRegressions)
	}
	if firstErr != nil {
		return fmt.Errorf("%d of %d sessions failed: %w", failed, *devices, firstErr)
	}
	if !allDrained {
		return errors.New("session did not drain")
	}
	return nil
}

// runDevice drives one controller loop over one live connection.
func runDevice(addr string, scn *qarv.Scenario, payloads map[int][]byte, frames int, interval time.Duration) deviceResult {
	res := deviceResult{hist: make(map[int]int, len(payloads))}
	ctrl, err := scn.Controller()
	if err != nil {
		res.err = err
		return res
	}
	client, err := stream.Dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer client.Close()
	for i := 0; i < frames; i++ {
		q := client.BacklogBytes()
		d := ctrl.Decide(i, q)
		res.hist[d]++
		if err := client.SendFrame(stream.Frame{
			ID:      uint32(i),
			Depth:   uint8(d),
			Payload: payloads[d],
		}); err != nil {
			res.err = fmt.Errorf("frame %d: %w", i, err)
			return res
		}
		time.Sleep(interval)
	}
	res.drained = client.WaitForAcks(30 * time.Second)
	res.stats = client.Stats()
	return res
}
