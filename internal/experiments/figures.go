package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"qarv/internal/octree"
	"qarv/internal/quality"
	"qarv/internal/queueing"
	"qarv/internal/sim"
	"qarv/internal/trace"
)

// ---------------------------------------------------------------------------
// FIG1 — "AR visualization resolution depending on Octree depth"
// ---------------------------------------------------------------------------

// Fig1Row reports the fidelity of the depth-d LOD against the full capture,
// one row per depth (the paper shows d = 5, 6, 7 visually; we quantify).
type Fig1Row struct {
	Depth      int
	Points     int     // occupied voxels rendered at this depth
	PointRatio float64 // Points / full-resolution points
	PSNR       float64 // geometry PSNR (dB) vs the full capture
	Hausdorff  float64 // worst-case geometric deviation (m)
	ColorPSNR  float64 // luma PSNR (dB) vs the full capture
}

// Fig1Context regenerates the Fig. 1 artifact: per-depth resolution and
// fidelity of the octree LOD ladder over the capture params describes,
// one row per candidate depth. Only the capture fields (Character,
// Samples, CaptureDepth, Seed) and Depths matter; zero values take the
// scenario defaults. ctx is checked before each depth's (expensive)
// geometry comparison. Parameters are validated before the capture, so
// a depth beyond the capture depth fails at once with
// ErrDepthBeyondCapture.
func Fig1Context(ctx context.Context, params ScenarioParams) ([]Fig1Row, error) {
	p := params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	cloud, tree, err := Capture(p)
	if err != nil {
		return nil, err
	}
	ref := quality.NewReference(cloud)
	rows := make([]Fig1Row, 0, len(p.Depths))
	for _, d := range p.Depths {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fig1 canceled at depth %d: %w", d, err)
		}
		lod, err := tree.LOD(d, octree.LODCentroid)
		if err != nil {
			return nil, fmt.Errorf("LOD depth %d: %w", d, err)
		}
		geo, err := ref.Geometry(lod)
		if err != nil {
			return nil, fmt.Errorf("geometry depth %d: %w", d, err)
		}
		ratio, err := quality.PointRatio(cloud, lod)
		if err != nil {
			return nil, err
		}
		colPSNR, err := ref.ColorPSNR(lod)
		if err != nil {
			return nil, fmt.Errorf("color depth %d: %w", d, err)
		}
		rows = append(rows, Fig1Row{
			Depth:      d,
			Points:     lod.Len(),
			PointRatio: ratio,
			PSNR:       geo.PSNR,
			Hausdorff:  geo.Hausdorff,
			ColorPSNR:  colPSNR,
		})
	}
	return rows, nil
}

// Fig1Invariants checks the monotonicity the paper's caption asserts
// ("bigger the number of PCs introduces better visualization quality"):
// points, ratio, and PSNR must all increase with depth.
func Fig1Invariants(rows []Fig1Row) error {
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.Points <= prev.Points {
			return fmt.Errorf("points not increasing at depth %d", cur.Depth)
		}
		if cur.PSNR <= prev.PSNR && !math.IsInf(prev.PSNR, 1) {
			return fmt.Errorf("PSNR not increasing at depth %d", cur.Depth)
		}
		if cur.Hausdorff > prev.Hausdorff {
			return fmt.Errorf("Hausdorff increased at depth %d", cur.Depth)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// FIG2 — queue/stability dynamics and control actions
// ---------------------------------------------------------------------------

// Fig2Result bundles the three compared runs in the paper's order.
type Fig2Result struct {
	Scenario *Scenario
	Proposed *sim.Result
	MaxDepth *sim.Result
	MinDepth *sim.Result
}

// Fig2Context runs the paper's three controls over the calibrated
// scenario under a cancelable context: one policy grid of the three
// controls on the pool backend at the scenario horizon.
func Fig2Context(ctx context.Context, s *Scenario) (*Fig2Result, error) {
	specs, err := policySpecs("proposed", "max", "min")
	if err != nil {
		return nil, err
	}
	sw, err := NewSweep(s, AxisPolicy(specs...))
	if err != nil {
		return nil, err
	}
	rep, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Scenario: s,
		Proposed: rep.Rows[0].Detail.Sim,
		MaxDepth: rep.Rows[1].Detail.Sim,
		MinDepth: rep.Rows[2].Detail.Sim,
	}, nil
}

// BacklogTable returns Fig. 2(a): queue backlog vs time for the three
// controls.
func (r *Fig2Result) BacklogTable() (*trace.Table, error) {
	t := trace.NewTable("Time step", len(r.Proposed.Backlog))
	for _, pair := range []struct {
		name string
		res  *sim.Result
	}{
		{"Proposed", r.Proposed},
		{"only max-Depth", r.MaxDepth},
		{"only min-Depth", r.MinDepth},
	} {
		if err := t.Add(trace.Series{Name: pair.name, Values: pair.res.Backlog}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ControlTable returns Fig. 2(b): the chosen depth (# of Depth) vs time.
func (r *Fig2Result) ControlTable() (*trace.Table, error) {
	t := trace.NewTable("Time step", len(r.Proposed.Depth))
	for _, pair := range []struct {
		name string
		res  *sim.Result
	}{
		{"Proposed", r.Proposed},
		{"only max-Depth", r.MaxDepth},
		{"only min-Depth", r.MinDepth},
	} {
		if err := t.Add(trace.FromInts(pair.name, pair.res.Depth)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig2 shape-check errors (the paper-vs-measured contract the benchmark
// harness enforces).
var (
	ErrMaxNotDiverging    = errors.New("experiments: only max-Depth did not diverge")
	ErrMinNotConverged    = errors.New("experiments: only min-Depth did not converge")
	ErrProposedNotStable  = errors.New("experiments: Proposed did not stabilize")
	ErrKneeOffTarget      = errors.New("experiments: Proposed knee far from calibrated slot")
	ErrQualityNotDominant = errors.New("experiments: Proposed quality below stable baseline")
)

// CheckShape verifies the qualitative claims of Fig. 2: max diverges, min
// converges to zero, Proposed stabilizes with a knee near the calibrated
// slot and quality strictly above only-min-Depth.
func (r *Fig2Result) CheckShape() error {
	if v, err := r.MaxDepth.Verdict(); err != nil || v != queueing.VerdictDiverging {
		return fmt.Errorf("%w (verdict %v, err %v)", ErrMaxNotDiverging, v, err)
	}
	if v, err := r.MinDepth.Verdict(); err != nil || v != queueing.VerdictConverged {
		return fmt.Errorf("%w (verdict %v, err %v)", ErrMinNotConverged, v, err)
	}
	if v, err := r.Proposed.Verdict(); err != nil || v == queueing.VerdictDiverging {
		return fmt.Errorf("%w (verdict %v, err %v)", ErrProposedNotStable, v, err)
	}
	knee := r.KneeSlot()
	want := r.Scenario.Params.KneeSlot
	if knee < 0 || math.Abs(float64(knee)-want) > 0.15*want {
		return fmt.Errorf("%w: knee %d, want ~%v", ErrKneeOffTarget, knee, want)
	}
	if r.Proposed.TimeAvgUtility <= r.MinDepth.TimeAvgUtility {
		return fmt.Errorf("%w: %v <= %v", ErrQualityNotDominant,
			r.Proposed.TimeAvgUtility, r.MinDepth.TimeAvgUtility)
	}
	return nil
}

// KneeSlot returns the first slot where the Proposed run leaves the
// deepest depth (−1 if it never does) — the paper's "recognized optimized
// point" of 400 unit times.
func (r *Fig2Result) KneeSlot() int {
	_, knee := depthSummary(r.Proposed.Depth)
	return knee
}
