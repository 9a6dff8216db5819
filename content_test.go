package qarv

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

var (
	facadeProfOnce sync.Once
	facadeProf     *ContentProfile
	facadeProfErr  error
)

// facadeProfile builds one small measured profile for the facade tests;
// LoadContent memoizes, so the asset pipeline runs once per process.
func facadeProfile(t *testing.T) *ContentProfile {
	t.Helper()
	facadeProfOnce.Do(func() {
		facadeProf, facadeProfErr = LoadContent(ContentConfig{
			Asset: "loot", Samples: 6_000, CaptureDepth: 7, Seed: 3,
		})
	})
	if facadeProfErr != nil {
		t.Fatal(facadeProfErr)
	}
	return facadeProf
}

func TestWithContentSession(t *testing.T) {
	prof := facadeProfile(t)

	run := func() *Report {
		t.Helper()
		s, err := NewSession(WithContent(prof), WithSlots(120), WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := run()
	if rep.Sim == nil || len(rep.Sim.Depth) != 120 {
		t.Fatalf("sim result %+v, want a 120-slot trajectory", rep.Sim)
	}
	if rep.TimeAvgUtility <= 0 {
		t.Fatalf("average utility %v, want positive measured PSNR utility", rep.TimeAvgUtility)
	}
	// Same profile + seed must reproduce the report byte-for-byte.
	if again := run(); !reflect.DeepEqual(rep, again) {
		t.Fatal("content-backed session is not deterministic under a fixed seed")
	}
}

func TestWithContentScenarioKnobs(t *testing.T) {
	prof := facadeProfile(t)
	scn, err := NewContentScenario(ScenarioParams{KneeSlot: 80, Slots: 160}, prof)
	if err != nil {
		t.Fatal(err)
	}
	// A scenario alongside supplies the control knobs; the session still
	// resolves the profile's measured ladders.
	s, err := NewSession(WithScenario(scn), WithContent(prof), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sim == nil || len(rep.Sim.Depth) != 160 {
		t.Fatalf("sim result %+v, want the scenario's 160-slot trajectory", rep.Sim)
	}
}

func TestWithContentConflicts(t *testing.T) {
	if _, err := NewSession(WithContent(nil), WithSlots(10)); err == nil {
		// WithContent(nil) leaves the pointer nil, so this degrades to a
		// sessions-without-models error rather than a content error.
		t.Fatal("nil content with no models: expected error")
	}
}
