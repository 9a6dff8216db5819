package qarv

import (
	"bytes"
	"context"
	"testing"
)

// End-to-end integration tests through the public facade only: everything
// a downstream user would touch, wired together the way README shows.

func TestEndToEndPipeline(t *testing.T) {
	// Capture.
	cloud, err := GenerateBody(BodyConfig{SamplesTarget: 40_000, CaptureDepth: 9, Seed: 3}, Pose{})
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Len() < 5000 || !cloud.HasColors() {
		t.Fatalf("capture: %d points, colors=%v", cloud.Len(), cloud.HasColors())
	}

	// Dataset IO round trip.
	var buf bytes.Buffer
	if err := WritePLY(&buf, cloud, PLYBinaryLE, "integration"); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadPLY(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != cloud.Len() {
		t.Fatalf("PLY round trip lost points: %d != %d", loaded.Len(), cloud.Len())
	}

	// Octree + profile.
	tree, err := BuildOctree(loaded, 9)
	if err != nil {
		t.Fatal(err)
	}
	profile := tree.Profile()
	if len(profile) != 10 || profile[9] != loaded.Len() && profile[9] > loaded.Len() {
		t.Fatalf("profile = %v", profile)
	}

	// Controller.
	util, err := NewLogPointUtility(profile)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := NewPointCostModel(profile, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	depths := []int{4, 5, 6, 7, 8, 9}
	service := 0.85 * float64(profile[9])
	cfg := ControllerConfig{Depths: depths, Utility: util, Cost: cost}
	v, err := CalibrateV(100, service, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.V = v
	ctrl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate.
	s, err := NewSession(
		WithPolicy(ctrl), WithArrivals(&DeterministicArrivals{PerSlot: 1}),
		WithCost(cost), WithUtility(util),
		WithService(&ConstantService{Rate: service}), WithSlots(600),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Sim
	verdict, err := res.Verdict()
	if err != nil {
		t.Fatal(err)
	}
	if verdict == VerdictDiverging {
		t.Errorf("end-to-end run diverged")
	}
	if res.TimeAvgUtility <= 0 {
		t.Error("no utility accrued")
	}
}

func TestFacadeScenarioAndFigures(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Samples: 40_000, Slots: 600, KneeSlot: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig2(scn)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatalf("figure shape: %v", err)
	}
	rows, err := Fig1(ScenarioParams{Samples: 40_000, CaptureDepth: 9, Depths: []int{4, 6, 8}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Points >= rows[2].Points {
		t.Errorf("Fig1 rows = %+v", rows)
	}
}

func TestFacadePolicies(t *testing.T) {
	depths := []int{5, 6, 7}
	minP, err := NewMinDepthPolicy(depths)
	if err != nil {
		t.Fatal(err)
	}
	randP, err := NewRandomPolicy(depths, 9)
	if err != nil {
		t.Fatal(err)
	}
	thrP, err := NewThresholdPolicy(depths, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{minP, randP, thrP} {
		d := p.Decide(0, 50)
		if d < 5 || d > 7 {
			t.Errorf("%s chose %d outside the set", p.Name(), d)
		}
	}
}

func TestFacadeMultiDevice(t *testing.T) {
	scn, err := NewScenario(ScenarioParams{Samples: 30_000, Slots: 400, KneeSlot: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ctrl1, err := scn.Controller()
	if err != nil {
		t.Fatal(err)
	}
	ctrl2, err := scn.Controller()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(
		WithDevices(
			Device{Policy: ctrl1, Cost: scn.Cost, Utility: scn.Utility, Arrivals: &DeterministicArrivals{PerSlot: 1}},
			Device{Policy: ctrl2, Cost: scn.Cost, Utility: scn.Utility, Arrivals: &DeterministicArrivals{PerSlot: 1}},
		),
		WithService(&ConstantService{Rate: 2 * scn.ServiceRate}),
		WithSlots(400),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Multi.PerDevice) != 2 {
		t.Fatalf("devices = %d", len(rep.Multi.PerDevice))
	}
}
