package delay

import (
	"testing"
	"time"

	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
)

// TestCalibrateAgainstRealLODTimings exercises the real calibration path
// end to end: time actual octree LOD extractions on this machine, fit the
// points→time law, and derive a frame-budget service rate. This is the
// measured substitute for the paper's unstated mobile render timings.
// Assertions are deliberately loose — wall-clock noise on
// shared CI machines is expected — but the fitted law must be physically
// sensible.
func TestCalibrateAgainstRealLODTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock calibration skipped in -short mode")
	}
	rng := geom.NewRNG(71)
	cloud := &pointcloud.Cloud{}
	for i := 0; i < 60_000; i++ {
		v := rng.UnitSphere().Scale(1 + 0.05*rng.Norm())
		cloud.Append(v, nil, nil)
	}
	tree, err := octree.Build(cloud, 10)
	if err != nil {
		t.Fatal(err)
	}
	depths := []int{4, 5, 6, 7, 8, 9, 10}
	points := make([]float64, len(depths))
	durations := make([]time.Duration, len(depths))
	// Minimum of 15 runs per depth to suppress scheduler noise. Each
	// round visits every depth once, so one burst of preemption inflates
	// at most a round's worth of samples instead of every sample of one
	// depth.
	for rep := 0; rep < 15; rep++ {
		for i, d := range depths {
			start := time.Now()
			lod, err := tree.LOD(d, octree.LODCentroid)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			points[i] = float64(lod.Len())
			if rep == 0 || elapsed < durations[i] {
				durations[i] = elapsed
			}
		}
	}
	cal, err := CalibrateFromMeasurements(points, durations)
	if err != nil {
		t.Fatalf("calibration failed on real timings: %v", err)
	}
	// Physical sanity: positive marginal cost, a real machine processes
	// points at somewhere between 0.1ns and 100µs each.
	if cal.NanosPerPoint < 0.1 || cal.NanosPerPoint > 1e5 {
		t.Errorf("ns/point = %v implausible", cal.NanosPerPoint)
	}
	if cal.R2 < 0.5 {
		t.Errorf("fit R2 = %v; points→time law not visible", cal.R2)
	}
	// A 33ms frame budget must admit a positive, finite point budget.
	budget := cal.ServiceBudget(33 * time.Millisecond)
	if budget <= 0 {
		t.Errorf("service budget = %v", budget)
	}
	t.Logf("calibrated: %.2f ns/point, fixed %.0f ns, R2=%.3f, 33ms budget=%.0f points",
		cal.NanosPerPoint, cal.FixedNanos, cal.R2, budget)
}
