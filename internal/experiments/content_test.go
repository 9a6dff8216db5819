package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"qarv/internal/content"
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

var (
	contentProfOnce sync.Once
	contentProfs    [2]*content.Profile
	contentProfErr  error
)

// contentProfiles builds two small measured profiles once for the whole
// package (the content cache would dedupe anyway; the sync.Once keeps
// the error handling in one place).
func contentProfiles(t *testing.T) (*content.Profile, *content.Profile) {
	t.Helper()
	contentProfOnce.Do(func() {
		for i, asset := range []string{"loot", "soldier"} {
			contentProfs[i], contentProfErr = content.Load(content.Config{
				Asset: asset, Samples: 6_000, CaptureDepth: 7, Seed: 3,
			})
			if contentProfErr != nil {
				return
			}
		}
	})
	if contentProfErr != nil {
		t.Fatal(contentProfErr)
	}
	return contentProfs[0], contentProfs[1]
}

func TestNewContentScenario(t *testing.T) {
	prof, _ := contentProfiles(t)
	scn, err := NewContentScenario(ScenarioParams{KneeSlot: 150, Slots: 300}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if scn.Params.Character != "loot" {
		t.Fatalf("character %q, want the profile's loot", scn.Params.Character)
	}
	depths := scn.Params.Depths
	dMax, second := depths[len(depths)-1], depths[len(depths)-2]
	lo, hi := scn.Cost.FrameCost(second), scn.Cost.FrameCost(dMax)
	if scn.ServiceRate <= lo || scn.ServiceRate >= hi {
		t.Fatalf("service rate %v outside bytes-domain band (%v, %v)", scn.ServiceRate, lo, hi)
	}
	if bytes := prof.Bytes(); scn.Cost.FrameCost(dMax) != float64(bytes[dMax]) {
		t.Fatalf("cost %v, want measured bytes %d", scn.Cost.FrameCost(dMax), bytes[dMax])
	}
	if v := scn.V; v <= 0 {
		t.Fatalf("calibrated V %v, want positive", v)
	}
	if _, err := scn.Controller(); err != nil {
		t.Fatalf("controller over measured ladders: %v", err)
	}
	// The controller must see the measured PSNR, not an analytic model.
	if got := scn.Utility.Name(); got != "psnr" {
		t.Fatalf("utility model %q, want psnr", got)
	}
}

func TestNewContentScenarioValidation(t *testing.T) {
	prof, _ := contentProfiles(t)
	if _, err := NewContentScenario(ScenarioParams{}, nil); err == nil {
		t.Fatal("nil profile: expected error")
	}
	_, err := NewContentScenario(ScenarioParams{Depths: []int{6, 9}}, prof)
	if !errors.Is(err, ErrDepthBeyondCapture) {
		t.Fatalf("depth beyond capture: err = %v", err)
	}
	_, err = NewContentScenario(ScenarioParams{ServiceFraction: 1.5}, prof)
	if !errors.Is(err, ErrBadServiceFraction) {
		t.Fatalf("service fraction 1.5: err = %v", err)
	}
}

// TestNewContentScenarioDepthOrder: a deepest-first candidate list
// calibrates the same content scenario as the ascending one.
func TestNewContentScenarioDepthOrder(t *testing.T) {
	prof, _ := contentProfiles(t)
	asc := prof.Depths()
	desc := make([]int, len(asc))
	for i, d := range asc {
		desc[len(asc)-1-i] = d
	}
	a, err := NewContentScenario(ScenarioParams{Depths: asc}, prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewContentScenario(ScenarioParams{Depths: desc}, prof)
	if err != nil {
		t.Fatalf("depths %v: %v", desc, err)
	}
	if a.ServiceRate != b.ServiceRate || a.V != b.V {
		t.Errorf("depths %v: service %v, V %v; ascending: service %v, V %v",
			desc, b.ServiceRate, b.V, a.ServiceRate, a.V)
	}
}

// TestFleetDevicesPriceInScenarioDomain: allocator devices scale the
// scenario's own cost model, so a content scenario's devices are priced
// in bytes like its V and budget, not in occupancy points.
func TestFleetDevicesPriceInScenarioDomain(t *testing.T) {
	prof, _ := contentProfiles(t)
	scn, err := NewContentScenario(ScenarioParams{KneeSlot: 100, Slots: 200}, prof)
	if err != nil {
		t.Fatal(err)
	}
	specs := append(HeterogeneousSpecs(3), AllocDeviceSpec{ArrivalsPerSlot: 1, CostScale: 1.5})
	devices, err := fleetDevices(scn, specs, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		for d := 0; d <= prof.CaptureDepth(); d++ {
			if got, want := devices[i].Cost.FrameCost(d), spec.CostScale*scn.Cost.FrameCost(d); got != want {
				t.Errorf("device %d depth %d: cost %v, want %v", i, d, got, want)
			}
		}
	}
}

func TestAxisContentSweep(t *testing.T) {
	profA, profB := contentProfiles(t)
	base, err := NewContentScenario(ScenarioParams{KneeSlot: 100, Slots: 200}, profA)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweep(base, AxisContent(profA, profB), AxisV(0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	sw.Seed = 7
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rep.Rows))
	}
	// Different assets must yield different measured workloads: the two
	// assets' rows at the same V must not coincide.
	if rep.Rows[0].Utility == rep.Rows[2].Utility && rep.Rows[0].Backlog == rep.Rows[2].Backlog {
		t.Fatal("loot and soldier cells produced identical results; content axis had no effect")
	}
	if rep.Rows[0].Coords[0].Label != "loot" || rep.Rows[2].Coords[0].Label != "soldier" {
		t.Fatalf("content labels %q/%q, want loot/soldier",
			rep.Rows[0].Coords[0].Label, rep.Rows[2].Coords[0].Label)
	}
}

func TestAxisViewDistanceSweep(t *testing.T) {
	profA, _ := contentProfiles(t)
	base, err := NewContentScenario(ScenarioParams{KneeSlot: 100, Slots: 150}, profA)
	if err != nil {
		t.Fatal(err)
	}
	cfg := content.Config{Asset: "loot", Samples: 6_000, CaptureDepth: 7, Seed: 3,
		View: content.View{Width: 64, Height: 64}}
	sw, err := NewSweep(base, AxisViewDistance(cfg, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rep.Rows))
	}
	if !rep.Rows[0].Coords[0].Numeric || rep.Rows[0].Coords[0].Value != 2 {
		t.Fatalf("viewdist coord %+v, want numeric 2", rep.Rows[0].Coords[0])
	}

	// Invalid distance fails the grid before any cell runs.
	bad, err := NewSweep(base, AxisViewDistance(cfg, -1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Run(context.Background()); err == nil {
		t.Fatal("negative distance: expected grid error")
	}
}

// TestViewUtilityStabilizesController: the measured view-PSNR ladder
// plugs into the same drift-plus-penalty controller, which then holds
// its calibrated scenario stable past the knee.
func TestViewUtilityStabilizesController(t *testing.T) {
	prof, err := content.Load(content.Config{
		Asset: "loot", Samples: 6_000, CaptureDepth: 7, Seed: 3,
		Quality: content.QualityView, View: content.View{Width: 64, Height: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	scn, err := NewContentScenario(ScenarioParams{KneeSlot: 100, Slots: 400}, prof)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := scn.Controller()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), scn.SimConfig(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := res.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if verdict == queueing.VerdictDiverging {
		t.Error("view-utility controller diverged")
	}
	if _, knee := depthSummary(res.Depth); knee < 0 {
		t.Error("view-utility controller never backed off the deepest depth")
	}
}
