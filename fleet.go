package qarv

import (
	"context"

	"qarv/internal/fleet"
)

// ---------------------------------------------------------------------------
// Fleet simulation (10k–1M independent device sessions)
// ---------------------------------------------------------------------------

type (
	// FleetSpec describes one fleet run: the concurrent session count,
	// horizon, shard parallelism, churn hazard, profile mix, seed, and
	// quantile-sketch accuracy.
	FleetSpec = fleet.Spec
	// Profile is one device class of a fleet mix: per-session policy,
	// arrival, and service factories over shared cost/utility models.
	Profile = fleet.Profile
	// FleetReport is the merged result of a fleet run: fleet-wide and
	// per-profile streaming aggregates (quantile summaries of sojourn,
	// backlog, and utility; frame accounting; stability-verdict counts)
	// plus the engine's device-slots/sec throughput.
	FleetReport = fleet.Report
	// FleetProfileReport is one device class's merged accounting.
	FleetProfileReport = fleet.ProfileReport
)

// Fleet is a validated, immutable fleet-simulation run, constructed by
// NewFleet and driven by Run. Reports are deterministic for a given spec
// and seed, except for the wall-clock fields (Elapsed,
// DeviceSlotsPerSec); across different shard counts everything but the
// last bits of the float-sum-backed Mean/DroppedWork fields is identical
// too (see the internal/fleet package comment).
type Fleet struct {
	spec fleet.Spec
}

// NewFleet validates the spec into a runnable Fleet.
func NewFleet(spec FleetSpec) (*Fleet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Fleet{spec: spec}, nil
}

// Run executes the fleet. Cancellation of ctx is honored inside every
// shard's slot loops (within a queueing.PollEvery stride, exactly like
// Session.Run).
func (f *Fleet) Run(ctx context.Context) (*FleetReport, error) {
	return fleet.RunContext(ctx, f.spec)
}
