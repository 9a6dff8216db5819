package experiments

import (
	"errors"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/netem"
	"qarv/internal/queueing"
)

func offloadParams() OffloadParams {
	return OffloadParams{ScenarioParams: ScenarioParams{
		Samples:  40_000,
		Slots:    800,
		KneeSlot: 200,
		Seed:     3,
	}}
}

func TestOffloadStabilizesUplink(t *testing.T) {
	res, err := Offload(offloadParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == queueing.VerdictDiverging {
		t.Errorf("uplink queue diverged (verdict %v)", res.Verdict)
	}
	// The knee behaviour carries over to the bytes domain: depth 10
	// before the knee, lower after.
	if res.Depth[0] != 10 {
		t.Errorf("initial depth = %d, want 10", res.Depth[0])
	}
	sawLower := false
	for _, d := range res.Depth[200:] {
		if d < 10 {
			sawLower = true
			break
		}
	}
	if !sawLower {
		t.Error("controller never backed off in the bytes domain")
	}
	// Delivery stats are populated and sane.
	if res.MeanLatency <= res.Params.Link.LatencySlots {
		t.Errorf("mean latency %v below propagation floor %v",
			res.MeanLatency, res.Params.Link.LatencySlots)
	}
	if res.P95Latency < res.MeanLatency {
		t.Errorf("p95 %v below mean %v", res.P95Latency, res.MeanLatency)
	}
	if len(res.Latency)+res.LossCount != res.Params.Slots {
		t.Errorf("delivered %d + lost %d != %d frames",
			len(res.Latency), res.LossCount, res.Params.Slots)
	}
	// ~1% loss configured: losses must occur but stay small.
	if res.LossCount == 0 || res.LossCount > res.Params.Slots/20 {
		t.Errorf("loss count = %d for p=0.01 over %d frames", res.LossCount, res.Params.Slots)
	}
}

func TestOffloadBytesProfileDrivesCost(t *testing.T) {
	res, err := Offload(offloadParams())
	if err != nil {
		t.Fatal(err)
	}
	// The bytes profile must be strictly increasing over the candidate
	// depths and the bandwidth sit between the top two.
	for d := 6; d <= 10; d++ {
		if res.Bytes[d] <= res.Bytes[d-1] {
			t.Errorf("bytes profile not increasing at %d: %v", d, res.Bytes[d])
		}
	}
	if res.Bandwidth <= float64(res.Bytes[9]) || res.Bandwidth >= float64(res.Bytes[10]) {
		t.Errorf("bandwidth %v not in (bytes(9)=%d, bytes(10)=%d)",
			res.Bandwidth, res.Bytes[9], res.Bytes[10])
	}
}

func TestOffloadBandwidthDropRecovery(t *testing.T) {
	p := offloadParams()
	p.Slots = 1600
	p.Dynamics = dropTrace(t, 600, 1000, 0.5)
	res, err := Offload(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == queueing.VerdictDiverging {
		t.Error("controller diverged under bandwidth drop")
	}
	// Depth must shed inside the drop window relative to steady state.
	meanIn := meanDepthRange(res.Depth, 700, 1000)
	meanOut := meanDepthRange(res.Depth, 300, 600)
	if meanIn >= meanOut {
		t.Errorf("depth in drop window %.2f not below normal %.2f", meanIn, meanOut)
	}
}

// dropTrace is the three-point factor trace of a one-off bandwidth drop
// to factor during [start, end).
func dropTrace(t *testing.T, start, end int, factor float64) *netem.TraceBandwidth {
	t.Helper()
	tb, err := netem.NewTraceBandwidth([]netem.TracePoint{
		{Slot: 0, BytesPerSlot: 1},
		{Slot: start, BytesPerSlot: factor},
		{Slot: end, BytesPerSlot: 1},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func meanDepthRange(depths []int, lo, hi int) float64 {
	var s float64
	for _, d := range depths[lo:hi] {
		s += float64(d)
	}
	return s / float64(hi-lo)
}

func TestOffloadDegenerateLink(t *testing.T) {
	p := offloadParams()
	// Loss not quite 1 (validation), so the link loses essentially all.
	p.Link = &netem.LinkConfig{LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.999}
	if _, err := Offload(p); err == nil {
		// Statistically ~0.1% delivered; accept either outcome but a
		// totally dead link must not panic.
		t.Log("some frames survived the 99.9% loss link")
	}
}

func TestOffloadBadCharacter(t *testing.T) {
	p := offloadParams()
	p.Character = "nobody"
	if _, err := Offload(p); err == nil {
		t.Error("unknown character must error")
	}
}

// ---------------------------------------------------------------------------
// Dynamic-network offload
// ---------------------------------------------------------------------------

func TestOffloadDynamicsValidation(t *testing.T) {
	p := offloadParams()
	p.Dynamics = &netem.MarkovBandwidth{GoodRate: -1}
	if err := p.Validate(); !errors.Is(err, netem.ErrBadMarkov) {
		t.Errorf("bad markov: %v", err)
	}
	// A forgotten constant factor would be a permanent outage.
	p.Dynamics = &delay.ConstantService{}
	if err := p.Validate(); !errors.Is(err, delay.ErrBadConstant) {
		t.Errorf("zero constant: %v", err)
	}
	p.Dynamics = &netem.TraceBandwidth{}
	if err := p.Validate(); !errors.Is(err, netem.ErrEmptyTrace) {
		t.Errorf("empty trace: %v", err)
	}
	p.Dynamics = &delay.ConstantService{Rate: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOffloadMarkovDynamics: a volatile uplink degrades delivered
// quality relative to the static link of equal mean, the run stays
// deterministic per seed, and the dynamics name lands in the result.
func TestOffloadMarkovDynamics(t *testing.T) {
	base := offloadParams()
	static, err := Offload(base)
	if err != nil {
		t.Fatal(err)
	}
	if static.Network != "static" {
		t.Errorf("static run network = %q", static.Network)
	}

	run := func() *OffloadResult {
		p := offloadParams()
		p.Dynamics = &netem.MarkovBandwidth{
			GoodRate: 1.5, BadRate: 0.5,
			PGoodBad: 0.1, PBadGood: 0.1,
		}
		res, err := Offload(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dyn := run()
	if dyn.Network != "markov-bw" {
		t.Errorf("network = %q", dyn.Network)
	}
	if dyn.MeanDepth >= static.MeanDepth {
		t.Errorf("volatile uplink did not reduce mean depth: %v vs static %v",
			dyn.MeanDepth, static.MeanDepth)
	}
	// Byte-determinism: an identical spec replays the identical report.
	again := run()
	if dyn.MeanDepth != again.MeanDepth || dyn.MeanLatency != again.MeanLatency ||
		dyn.LossCount != again.LossCount {
		t.Errorf("dynamic offload not deterministic per seed: %+v vs %+v",
			dyn.MeanDepth, again.MeanDepth)
	}
	for i, q := range dyn.BacklogBytes {
		if q != again.BacklogBytes[i] {
			t.Fatalf("backlog trajectory diverged at slot %d", i)
		}
	}
}

// TestOffloadHandoffDynamics: mobility handoffs (outage + cell reset)
// flow through the link without breaking the run, and the controller
// still avoids divergence.
func TestOffloadHandoffDynamics(t *testing.T) {
	p := offloadParams()
	p.Dynamics = &netem.HandoffBandwidth{
		BaseRate:          1,
		MeanIntervalSlots: 150,
		OutageSlots:       3,
		ScaleLo:           0.8,
		ScaleHi:           1.2,
	}
	res, err := Offload(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network != "handoff" {
		t.Errorf("network = %q", res.Network)
	}
	if res.Verdict == queueing.VerdictDiverging {
		t.Errorf("handoff dynamics diverged the uplink queue")
	}
}
