// Benchmark harness: one benchmark per paper artifact (see README.md for
// the artifact index; BenchmarkFleet lives in internal/fleet).
//
//	FIG1  -> BenchmarkFig1DepthResolution
//	FIG2A -> BenchmarkFig2aQueueDynamics
//	FIG2B -> BenchmarkFig2bControlActions
//	TBL-C -> BenchmarkControllerDecisionPerCandidates (the O(N) claim)
//	ABL-* -> BenchmarkAblation*
//
// Benches report the figures' headline numbers as custom metrics
// (ReportMetric) so `go test -bench=. -benchmem` regenerates the rows the
// paper reports; cmd/qarvfig writes the full series as CSV.
package qarv

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"qarv/internal/content"
	"qarv/internal/experiments"
	"qarv/internal/octree"
	"qarv/internal/ply"
	"qarv/internal/quality"
	"qarv/internal/sim"
)

// benchParams mirrors the shared test scenario: smaller than the paper's
// capture but with the same occupancy growth law and the knee calibrated
// to slot 400.
func benchParams() ScenarioParams {
	return ScenarioParams{Samples: 60_000, Slots: 800, Seed: 1}
}

var (
	benchOnce sync.Once
	benchScn  *Scenario
	benchErr  error
)

func benchScenario(b *testing.B) *Scenario {
	b.Helper()
	benchOnce.Do(func() { benchScn, benchErr = NewScenario(benchParams()) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchScn
}

// BenchmarkFig1DepthResolution regenerates Fig. 1: the per-depth LOD
// ladder (d = 5..10) of one voxelized full-body frame. Metrics report the
// rendered point count and geometry PSNR per depth.
func BenchmarkFig1DepthResolution(b *testing.B) {
	cloud, err := GenerateBody(BodyConfig{SamplesTarget: 60_000, CaptureDepth: 10, Seed: 1}, Pose{})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := BuildOctree(cloud, 10)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{5, 6, 7, 8, 9, 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var points int
			for i := 0; i < b.N; i++ {
				lod, err := tree.LOD(depth, octree.LODCentroid)
				if err != nil {
					b.Fatal(err)
				}
				points = lod.Len()
			}
			b.ReportMetric(float64(points), "points")
			lod, _ := tree.LOD(depth, octree.LODCentroid)
			rep, err := quality.CompareGeometry(cloud, lod)
			if err != nil {
				b.Fatal(err)
			}
			if rep.PSNR < 1e6 { // skip +Inf at full depth
				b.ReportMetric(rep.PSNR, "psnr_dB")
			}
		})
	}
}

// BenchmarkFig2aQueueDynamics regenerates Fig. 2(a): the 800-slot queue
// trajectories of Proposed / only max-Depth / only min-Depth. Metrics
// report each control's final backlog — the numbers the figure plots at
// t = 800 (max diverged, min at 0, Proposed bounded).
func BenchmarkFig2aQueueDynamics(b *testing.B) {
	s := benchScenario(b)
	var res *experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig2Context(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := res.CheckShape(); err != nil {
		b.Fatalf("figure shape violated: %v", err)
	}
	b.ReportMetric(res.Proposed.FinalBacklog, "proposed_finalQ")
	b.ReportMetric(res.MaxDepth.FinalBacklog, "maxdepth_finalQ")
	b.ReportMetric(res.MinDepth.FinalBacklog, "mindepth_finalQ")
}

// BenchmarkFig2bControlActions regenerates Fig. 2(b): the control action
// (# of depth) series. Metrics report the knee slot (the paper's
// "recognized optimized point" ≈ 400) and the Proposed scheme's mean
// depth before and after the knee.
func BenchmarkFig2bControlActions(b *testing.B) {
	s := benchScenario(b)
	var res *experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig2Context(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
	}
	knee := res.KneeSlot()
	b.ReportMetric(float64(knee), "knee_slot")
	var before, after float64
	for t := 0; t < knee; t++ {
		before += float64(res.Proposed.Depth[t])
	}
	for t := knee; t < len(res.Proposed.Depth); t++ {
		after += float64(res.Proposed.Depth[t])
	}
	if knee > 0 {
		b.ReportMetric(before/float64(knee), "depth_before_knee")
	}
	if rest := len(res.Proposed.Depth) - knee; rest > 0 {
		b.ReportMetric(after/float64(rest), "depth_after_knee")
	}
}

// BenchmarkControllerDecisionPerCandidates measures the per-slot decision
// cost as |R| grows — the paper's O(N) complexity claim (§II). ns/op must
// scale linearly in the candidate count.
func BenchmarkControllerDecisionPerCandidates(b *testing.B) {
	profile := make([]int, 22)
	for i := range profile {
		profile[i] = 1 << uint(i)
	}
	util, err := NewLogPointUtility(profile)
	if err != nil {
		b.Fatal(err)
	}
	cost, err := NewPointCostModel(profile, 1, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 4, 8, 16, 21} {
		b.Run(fmt.Sprintf("candidates=%d", n), func(b *testing.B) {
			depths := make([]int, n)
			for i := range depths {
				depths[i] = i + 1
			}
			ctrl, err := NewController(ControllerConfig{
				V: 1000, Depths: depths, Utility: util, Cost: cost,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := 12345.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ctrl.Decide(i, q)
			}
		})
	}
}

// benchSweep runs a one-axis pool sweep b.N times at the given horizon
// and returns the last run's rows.
func benchSweep(b *testing.B, s *Scenario, slots int, axis SweepAxis) []SweepRow {
	b.Helper()
	var rows []SweepRow
	for i := 0; i < b.N; i++ {
		sw, err := NewSweep(s, axis)
		if err != nil {
			b.Fatal(err)
		}
		sw.Slots = slots
		rep, err := sw.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rows = rep.Rows
	}
	return rows
}

// BenchmarkAblationVSweep regenerates ABL-V: the O(1/V) quality gap vs
// O(V) backlog tradeoff around the calibrated V*.
func BenchmarkAblationVSweep(b *testing.B) {
	s := benchScenario(b)
	factors := []float64{0.1, 1, 3}
	for i, r := range benchSweep(b, s, 4000, AxisV(factors...)) {
		b.ReportMetric(r.Backlog, fmt.Sprintf("avgQ_V=%.2gx", factors[i]))
	}
}

// BenchmarkAblationRateSweep regenerates ABL-RATE: robustness of the
// calibrated controller to service-rate shifts.
func BenchmarkAblationRateSweep(b *testing.B) {
	s := benchScenario(b)
	fractions := []float64{0.7, 1.0, 1.3}
	for i, r := range benchSweep(b, s, 1600, AxisServiceRate(fractions...)) {
		b.ReportMetric(r.MeanDepth, fmt.Sprintf("meanDepth_rate=%.1fx", fractions[i]))
	}
}

// BenchmarkAblationUtilitySweep regenerates ABL-UTIL: stability must be
// utility-model independent after per-model V recalibration.
func BenchmarkAblationUtilitySweep(b *testing.B) {
	s := benchScenario(b)
	logU, err := quality.NewLogPointUtility(s.Profile)
	if err != nil {
		b.Fatal(err)
	}
	normU, err := quality.NewNormalizedPointUtility(s.Profile)
	if err != nil {
		b.Fatal(err)
	}
	axis := SweepAxis{Name: "utility"}
	for _, m := range []UtilityModel{logU, normU, &quality.LinearDepthUtility{MaxDepth: s.Params.CaptureDepth}} {
		m := m
		axis.Points = append(axis.Points, SweepAxisPoint{
			Label: m.Name(),
			Apply: func(c *SweepCell) error {
				c.Utility = m
				c.RecalibrateV = true
				return nil
			},
		})
	}
	for _, r := range benchSweep(b, s, 800, axis) {
		b.ReportMetric(float64(r.KneeSlot), "knee_"+r.Coords[0].Label)
	}
}

// BenchmarkMultiDevice regenerates ABL-MD: N distributed controllers
// sharing an edge budget, each on local state only — one allocator cell
// of four unit devices splitting four times the single-device service.
func BenchmarkMultiDevice(b *testing.B) {
	s := benchScenario(b)
	unit := AllocDeviceSpec{ArrivalsPerSlot: 1, CostScale: 1}
	var devices []*sim.Result
	for i := 0; i < b.N; i++ {
		sw, err := NewSweep(s, AxisAllocator("equal"))
		if err != nil {
			b.Fatal(err)
		}
		sw.Slots = 1600
		sw.Configure(func(c *SweepCell) error {
			c.Devices = []AllocDeviceSpec{unit, unit, unit, unit}
			c.Budget = 4 * s.ServiceRate
			return nil
		})
		rep, err := sw.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		devices = rep.Rows[0].Detail.Multi.PerDevice
	}
	var worst float64
	for _, r := range devices {
		if r.TimeAvgBacklog > worst {
			worst = r.TimeAvgBacklog
		}
	}
	b.ReportMetric(worst, "worst_device_avgQ")
}

// BenchmarkOffloadUplink regenerates EXT-OFFLOAD: the controller driving
// octree streams (geometry + colors) over an emulated uplink; metrics
// report delivery latency and the knee behaviour in the bytes domain.
func BenchmarkOffloadUplink(b *testing.B) {
	var res *SharedUplinkResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = SharedUplink(context.Background(), SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 60_000, Slots: 800, KneeSlot: 400, Seed: 1},
			Devices:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	var depthSum float64
	depths := res.Multi.PerDevice[0].Depth
	for _, d := range depths {
		depthSum += float64(d)
	}
	b.ReportMetric(res.MeanLatency, "mean_latency_slots")
	b.ReportMetric(res.P95Latency, "p95_latency_slots")
	b.ReportMetric(depthSum/float64(len(depths)), "mean_depth")
	b.ReportMetric(float64(res.Bytes[10]), "bytes_at_depth10")
}

// BenchmarkRenderLadder regenerates EXT-VIEW: the image-domain version of
// Fig. 1 (per-depth view PSNR of the LOD ladder rendered by the software
// splatter), measured by the content pipeline's view-quality build.
func BenchmarkRenderLadder(b *testing.B) {
	var prof *content.Profile
	var err error
	for i := 0; i < b.N; i++ {
		prof, err = content.Build(content.Config{
			Samples: 40_000, CaptureDepth: 9, Depths: []int{5, 7, 9}, Seed: 1,
			Quality: content.QualityView, View: content.View{Width: 160, Height: 160},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range prof.Ladder() {
		b.ReportMetric(r.PSNR, fmt.Sprintf("viewPSNR_d%d", r.Depth))
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks (capacity planning for the pipeline stages)
// ---------------------------------------------------------------------------

// BenchmarkOctreeBuild measures octree construction over a full frame —
// the per-frame preprocessing cost on the capture side.
func BenchmarkOctreeBuild(b *testing.B) {
	cloud, err := GenerateBody(BodyConfig{SamplesTarget: 60_000, CaptureDepth: 10, Seed: 1}, Pose{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(cloud.Len()), "points")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildOctree(cloud, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOctreeSerialize measures occupancy-stream encoding at depth 9 —
// the AR stream payload generation cost.
func BenchmarkOctreeSerialize(b *testing.B) {
	cloud, err := GenerateBody(BodyConfig{SamplesTarget: 60_000, CaptureDepth: 10, Seed: 1}, Pose{})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := BuildOctree(cloud, 10)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := tree.SerializeBytes(9)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "stream_bytes")
}

// BenchmarkPLYRoundTrip measures dataset IO (binary little-endian, the 8i
// format) for a full frame.
func BenchmarkPLYRoundTrip(b *testing.B) {
	cloud, err := GenerateBody(BodyConfig{SamplesTarget: 30_000, CaptureDepth: 9, Seed: 1}, Pose{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ply.WriteCloud(&buf, cloud, ply.BinaryLittleEndian); err != nil {
			b.Fatal(err)
		}
		if _, err := ply.ReadCloud(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation800Slots measures the full Fig. 2 simulation loop
// cost (three policies, 800 slots) — the harness's own overhead.
func BenchmarkSimulation800Slots(b *testing.B) {
	s := benchScenario(b)
	ctrl, err := s.Controller()
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.SimConfig(ctrl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
