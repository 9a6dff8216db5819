package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/stream"
	"qarv/internal/synthetic"
)

// edge-live: an in-process stream.Server with frame validation on and no
// pacing budget, so decoding each frame is the service. Traffic crosses
// loopback TCP (127.0.0.1): two stream.Client connections send on a
// fixed open-loop schedule, each frame's depth drawn from the seed over
// depths 6–9. One operation is one frame, timed from when it was due to
// its ack.
//
// Each connection's frames are validated one after another, and a
// depth-9 frame takes about as long to decode as a 60 fps frame
// interval, so at 60 fps the reader sat at the edge of its capacity and
// latency swung tenfold between runs on a shared 2-core machine. At
// edgeFPS each connection's reader is busy about a quarter of the time.
const (
	edgeSamples  = 120_000
	edgeFPS      = 30 // per connection
	edgeConns    = 2
	edgeMinDepth = 6
	edgeMaxDepth = 9
	// edgeDrain bounds the wait for outstanding acks after the schedule.
	edgeDrain = 10 * time.Second
	// edgeReps is how many times each in-memory per-frame cost is timed.
	edgeReps = 30
	// edgeWindows splits a run's frames by due time for the latency
	// percentiles.
	edgeWindows = 4
)

// edgeRig is a live server, its connected clients, and the per-depth
// payloads they send.
type edgeRig struct {
	payloads [edgeMaxDepth + 1][]byte
	srv      *stream.Server
	clients  []*stream.Client
}

// setupEdgeLive captures a frame, serializes its payload at every
// depth, starts the server and dials the connections.
func setupEdgeLive(seed uint64) (*edgeRig, error) {
	ch, err := synthetic.ByName("longdress")
	if err != nil {
		return nil, err
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character: ch, SamplesTarget: edgeSamples, CaptureDepth: 10, Seed: seed,
	}, synthetic.Pose{})
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	tree, err := octree.Build(cloud, 10)
	if err != nil {
		return nil, fmt.Errorf("octree: %w", err)
	}
	r := &edgeRig{}
	for d := edgeMinDepth; d <= edgeMaxDepth; d++ {
		if r.payloads[d], err = tree.SerializeWithColorsBytes(d); err != nil {
			return nil, fmt.Errorf("serialize depth %d: %w", d, err)
		}
	}
	if r.srv, err = stream.Serve("127.0.0.1:0", stream.ServerConfig{Validate: true}); err != nil {
		return nil, err
	}
	for i := 0; i < edgeConns; i++ {
		c, err := stream.Dial(r.srv.Addr())
		if err != nil {
			_ = r.close() // the dial error is the one worth reporting
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// close disconnects the clients and shuts the server down, waiting for
// every connection handler to exit.
func (r *edgeRig) close() error {
	var first error
	for _, c := range r.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := r.srv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// edgeSchedule draws each connection's frame depths from the seed: every
// run of edgeMaxDepth-edgeMinDepth+1 frames holds each depth once, in a
// seeded order, so every seed offers the server the same load and at
// most two deepest frames arrive back to back.
func edgeSchedule(seed uint64, frames int) [][]int {
	rng := geom.NewRNG(seed ^ 0x65646765)
	span := edgeMaxDepth - edgeMinDepth + 1
	out := make([][]int, edgeConns)
	for c := range out {
		out[c] = make([]int, 0, frames+span)
		for len(out[c]) < frames {
			for _, k := range rng.Perm(span) {
				out[c] = append(out[c], edgeMinDepth+k)
			}
		}
		out[c] = out[c][:frames]
	}
	return out
}

// edgeStream is one open-loop stream's measurements.
type edgeStream struct {
	due, sent, acked int
	latency          []time.Duration // due → ack, per acked frame
	dueAt            []time.Duration // due time, per acked frame
	lag              []time.Duration // due → SendFrame return, per sent frame
	rtt              []time.Duration // Client send → ack, per acked frame
	span             time.Duration   // first due → last ack
	failures         []string
}

// driveEdge sends the schedule open loop: frame i of connection c is due
// at start + c·interval/edgeConns + i·interval whatever the server does,
// so a stall delays every later frame's ack and shows in its latency.
// With tr set, every SendFrame call gets a span under parent.
func driveEdge(r *edgeRig, depths [][]int, tr *tracer, parent int) *edgeStream {
	interval := time.Second / edgeFPS
	type sendRecord struct{ due, called, returned time.Duration }
	recs := make([][]sendRecord, len(r.clients))
	errs := make([]error, len(r.clients))
	start := clock()
	var wg sync.WaitGroup
	for c := range r.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := r.clients[c]
			offset := time.Duration(c) * interval / edgeConns
			for i, d := range depths[c] {
				due := offset + time.Duration(i)*interval
				if wait := due - clock().Sub(start); wait > 0 {
					time.Sleep(wait)
				}
				called := clock().Sub(start)
				sp := -1
				if tr != nil {
					sp = tr.begin(parent, "stream", "Client.SendFrame")
				}
				err := cl.SendFrame(stream.Frame{ID: uint32(i), Depth: uint8(d), Payload: r.payloads[d]})
				if tr != nil {
					tr.end(sp, 1)
				}
				if err != nil {
					errs[c] = fmt.Errorf("connection %d frame %d: %w", c, i, err)
					return
				}
				recs[c] = append(recs[c], sendRecord{due, called, clock().Sub(start)})
			}
		}(c)
	}
	wg.Wait()

	es := &edgeStream{}
	for c, cl := range r.clients {
		es.due += len(depths[c])
		es.sent += len(recs[c])
		if errs[c] != nil {
			es.failures = append(es.failures, errs[c].Error())
		}
		if !cl.WaitForAcks(edgeDrain) {
			es.failures = append(es.failures, fmt.Sprintf("connection %d: acks outstanding %v after the schedule", c, edgeDrain))
		}
		if st := cl.Stats(); st.AckRegressions != 0 {
			es.failures = append(es.failures, fmt.Sprintf("connection %d: %d ack regressions", c, st.AckRegressions))
		}
		// The server serves and acks each connection's frames in order,
		// so the i-th round trip belongs to frame i.
		rtts := cl.Latencies()
		for i, rec := range recs[c] {
			es.lag = append(es.lag, rec.returned-rec.due)
			if i >= len(rtts) {
				continue
			}
			lat := rec.called - rec.due + rtts[i]
			es.latency = append(es.latency, lat)
			es.dueAt = append(es.dueAt, rec.due)
			es.rtt = append(es.rtt, rtts[i])
			es.span = max(es.span, rec.due+lat)
			es.acked++
		}
	}
	return es
}

// checkEdgeServer compares the closed server's counters with what the
// clients sent and saw acked.
func checkEdgeServer(r *edgeRig, es *edgeStream) []string {
	var bad []string
	st := r.srv.Stats()
	if es.sent != es.due || st.FramesServed != es.sent || st.FramesAcked != es.sent || es.acked != es.sent {
		bad = append(bad, fmt.Sprintf("frames due %d, sent %d, served %d, acked by server %d, acks received %d",
			es.due, es.sent, st.FramesServed, st.FramesAcked, es.acked))
	}
	if st.Corrupt != 0 || st.AckFailures != 0 {
		bad = append(bad, fmt.Sprintf("%d corrupt frames, %d ack failures", st.Corrupt, st.AckFailures))
	}
	return bad
}

// streamEdge runs one schedule of the given length on a fresh rig, closes
// the rig, and checks the server's accounting.
func streamEdge(seed uint64, length time.Duration, tr *tracer, parent int) (*edgeStream, error) {
	rig, err := setupEdgeLive(seed)
	if err != nil {
		return nil, err
	}
	es := driveEdge(rig, edgeSchedule(seed, int(length.Seconds()*edgeFPS)), tr, parent)
	if err := rig.close(); err != nil {
		return nil, err
	}
	es.failures = append(es.failures, checkEdgeServer(rig, es)...)
	return es, nil
}

// runEdgeLive is the untraced edge-live workload.
func runEdgeLive(rc runConfig) (*outcome, error) {
	rig, setups, err := repeatSetup(func() (*edgeRig, error) { return setupEdgeLive(rc.seed) }, (*edgeRig).close)
	if err != nil {
		return nil, err
	}
	es := driveEdge(rig, edgeSchedule(rc.seed, int(rc.seconds.Seconds()*edgeFPS)), nil, -1)
	if err := rig.close(); err != nil {
		return nil, err
	}
	es.failures = append(es.failures, checkEdgeServer(rig, es)...)
	o := &outcome{setups: setups, attempted: es.due, ops: es.latency}
	for _, f := range es.failures {
		o.fail("%s", f)
	}
	// The percentiles are medians across edgeWindows consecutive windows
	// of due times, so one burst of machine noise moves one window.
	windows := make([][]time.Duration, edgeWindows)
	width := rc.seconds / edgeWindows
	for i, l := range es.latency {
		w := min(int(es.dueAt[i]/width), edgeWindows-1)
		windows[w] = append(windows[w], l)
	}
	// A frame never acked counts as failed and as beyond any latency
	// limit.
	if missing := es.due - es.acked; missing > 0 {
		o.failN(missing, "%d of %d frames not acked", missing, es.due)
		for i := 0; i < missing; i++ {
			o.ops = append(o.ops, time.Duration(math.MaxInt64))
			windows[edgeWindows-1] = append(windows[edgeWindows-1], time.Duration(math.MaxInt64))
		}
	}
	o.summarize(windows)
	if es.span > 0 {
		o.throughput = float64(es.acked) / es.span.Seconds()
	}
	fmt.Printf("# edge-live: %d frames due over loopback TCP (127.0.0.1), %d connections x %d fps open loop, %d acked; due->ack over all frames p50 %.2f ms, p95 %.2f ms (n=%d); median of %d windows p50 %.2f ms, p95 %.2f ms (about %d frames per window, %d beyond its p95); generator lag p95 %.3f ms\n",
		es.due, edgeConns, edgeFPS, es.acked, ms(quantile(o.ops, 0.5)), ms(quantile(o.ops, 0.95)), len(o.ops),
		edgeWindows, ms(o.p50), ms(o.p95), len(o.ops)/edgeWindows, len(o.ops)/edgeWindows/20, ms(quantile(es.lag, 0.95)))
	return o, nil
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

// attributeEdgeLive is the edge-live traced pass: the per-frame costs
// of each layer timed in memory, then two live streams of half the run
// length each, the second with a span around every SendFrame.
func attributeEdgeLive(a *attribution) error {
	const moves = "op_p50_ms, op_p95_ms @ edge-live"
	root := a.tr.begin(-1, "perfbench", "edge-live")
	defer a.tr.end(root, 1)
	rig, err := setupEdgeLive(a.rc.seed)
	if err != nil {
		return err
	}
	if err := rig.close(); err != nil {
		return err
	}

	times := make([]time.Duration, edgeReps)
	for d := edgeMinDepth; d <= edgeMaxDepth; d++ {
		for k := range times {
			if times[k], err = a.tr.call(root, "octree", "DeserializeWithColorsBytes", 1, func() error {
				_, err := octree.DeserializeWithColorsBytes(rig.payloads[d])
				return err
			}); err != nil {
				return err
			}
		}
		a.add(fmt.Sprintf("octree.deserialize_ms.d%d", d), ms(median(times)), "ms", moves+" (the server's per-frame validation)")
	}

	frame := stream.Frame{ID: 1, Depth: edgeMaxDepth, Payload: rig.payloads[edgeMaxDepth]}
	var buf bytes.Buffer
	for k := range times {
		buf.Reset()
		if times[k], err = a.tr.call(root, "stream", "WriteFrame", 1, func() error {
			return stream.WriteFrame(&buf, frame)
		}); err != nil {
			return err
		}
	}
	a.add("stream.write_frame_us.d9", us(median(times)), "us", moves)
	encoded := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(encoded)
	for k := range times {
		rd.Reset(encoded)
		if times[k], err = a.tr.call(root, "stream", "ReadMessage", 1, func() error {
			f, _, err := stream.ReadMessage(rd)
			if err == nil && len(f.Payload) != len(frame.Payload) {
				err = fmt.Errorf("read %d payload bytes, wrote %d", len(f.Payload), len(frame.Payload))
			}
			return err
		}); err != nil {
			return err
		}
	}
	a.add("stream.read_message_us.d9", us(median(times)), "us", moves)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < edgeReps; k++ {
		rd.Reset(encoded)
		if _, _, err := stream.ReadMessage(rd); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	a.add("stream.read_message_allocs.d9", float64(after.Mallocs-before.Mallocs)/edgeReps, "count", moves)
	const acks = 1000
	d, err := a.tr.call(root, "stream", "WriteAck", acks, func() error {
		for k := 0; k < acks; k++ {
			buf.Reset()
			if err := stream.WriteAck(&buf, stream.Ack{FrameID: uint32(k), ServedBytes: uint64(k), AllocatedBps: 1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	a.add("stream.write_ack_us", us(d)/acks, "us", moves)

	half := a.rc.seconds / 2
	plain, err := streamEdge(a.rc.seed, half, nil, -1)
	if err != nil {
		return err
	}
	live := a.tr.begin(root, "stream", "live")
	traced, err := streamEdge(a.rc.seed, half, a.tr, live)
	a.tr.end(live, 1)
	if err != nil {
		return err
	}
	for _, es := range []*edgeStream{plain, traced} {
		for _, f := range es.failures {
			a.check(false, "edge-live: %s", f)
		}
		a.check(es.acked == es.due, "edge-live: %d of %d frames acked", es.acked, es.due)
	}
	a.add("edge.generator_lag_ms.p95", ms(quantile(traced.lag, 0.95)), "ms", moves)
	a.add("stream.send_to_ack_ms.p50", ms(quantile(traced.rtt, 0.5)), "ms", "op_p50_ms @ edge-live")
	a.add("stream.send_to_ack_ms.p95", ms(quantile(traced.rtt, 0.95)), "ms", "op_p95_ms @ edge-live")
	a.add("stream.frames_acked", float64(traced.acked), "count", moves)
	a.add("obs.trace_overhead_ratio.edge-live", traced.span.Seconds()/plain.span.Seconds(), "ratio", "tracing cost @ edge-live")
	return nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
