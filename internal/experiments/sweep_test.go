package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/policy"
)

// TestSweepGridOrder: axes cross with the last axis varying fastest and
// rows land in grid order with their coordinates attached.
func TestSweepGridOrder(t *testing.T) {
	s := sharedScenario(t)
	sw, err := NewSweep(s,
		AxisV(0.5, 2),
		AxisSlots(50, 60, 70),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells() != 6 {
		t.Fatalf("cells = %d, want 6", sw.Cells())
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rep.Rows))
	}
	wantCoords := [][2]string{
		{"0.5", "50"}, {"0.5", "60"}, {"0.5", "70"},
		{"2", "50"}, {"2", "60"}, {"2", "70"},
	}
	for i, row := range rep.Rows {
		if row.Cell != i {
			t.Errorf("row %d has cell index %d", i, row.Cell)
		}
		if len(row.Coords) != 2 {
			t.Fatalf("row %d coords = %v", i, row.Coords)
		}
		if row.Coords[0].Label != wantCoords[i][0] || row.Coords[1].Label != wantCoords[i][1] {
			t.Errorf("row %d coords = %s/%s, want %s/%s", i,
				row.Coords[0].Label, row.Coords[1].Label, wantCoords[i][0], wantCoords[i][1])
		}
		if row.Backend != "pool" || row.Sessions != 1 {
			t.Errorf("row %d backend/sessions = %s/%d", i, row.Backend, row.Sessions)
		}
	}
	if got := rep.Axes; len(got) != 2 || got[0] != "v" || got[1] != "slots" {
		t.Errorf("axes = %v", got)
	}
}

// sweepReportJSON marshals a report for byte-equality comparisons.
func sweepReportJSON(t *testing.T, rep *SweepReport) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// stochasticSweep builds a 3-axis grid where every cell is stochastic —
// the configuration per-cell seed derivation exists for.
func stochasticSweep(t *testing.T, s *Scenario, workers int) *Sweep {
	t.Helper()
	sw, err := NewSweep(s,
		AxisV(0.5, 1),
		AxisArrivalRate(0.9, 1.1),
		AxisNetwork(NetworkStatic(), NetworkMarkov(0.5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = workers
	sw.Slots = 120
	sw.Seed = 7
	return sw
}

// TestSweepWorkerCountDeterminism: the same grid and seed produce
// byte-identical reports at every worker count (pool backend).
func TestSweepWorkerCountDeterminism(t *testing.T) {
	s := sharedScenario(t)
	base := ""
	for _, workers := range []int{1, 4, 0} {
		rep, err := stochasticSweep(t, s, workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := sweepReportJSON(t, rep)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("workers=%d produced a different report", workers)
		}
	}
}

// TestSweepFleetWorkerCountDeterminism: same contract on the fleet
// backend.
func TestSweepFleetWorkerCountDeterminism(t *testing.T) {
	s := sharedScenario(t)
	base := ""
	for _, workers := range []int{1, 3, 0} {
		sw := stochasticSweep(t, s, workers)
		sw.Backend = BackendFleet(8)
		sw.Slots = 60
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := sweepReportJSON(t, rep)
		if base == "" {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("workers=%d produced a different fleet report", workers)
		}
	}
}

// TestSweepSeedMatters: a different sweep seed actually changes
// stochastic cells.
func TestSweepSeedMatters(t *testing.T) {
	s := sharedScenario(t)
	a := stochasticSweep(t, s, 2)
	b := stochasticSweep(t, s, 2)
	b.Seed = 8
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sweepReportJSON(t, ra) == sweepReportJSON(t, rb) {
		t.Fatal("different sweep seeds produced identical reports")
	}
}

// TestSweepBackendsCoincide: a fully deterministic cell yields the same
// utility/backlog means whether run in-process or as a 1-session fleet.
func TestSweepBackendsCoincide(t *testing.T) {
	s := sharedScenario(t)
	run := func(backend SweepBackend) SweepRow {
		sw, err := NewSweep(s, AxisV(1))
		if err != nil {
			t.Fatal(err)
		}
		sw.Backend = backend
		sw.Slots = 300
		rep, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Rows[0]
	}
	pool := run(nil) // default BackendPool
	fl := run(BackendFleet(1))
	if diff := pool.Utility - fl.Utility; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("utility diverges across backends: pool %v, fleet %v", pool.Utility, fl.Utility)
	}
	if diff := pool.Backlog - fl.Backlog; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("backlog diverges across backends: pool %v, fleet %v", pool.Backlog, fl.Backlog)
	}
	if pool.Verdict != fl.Verdict {
		t.Errorf("verdict diverges: pool %s, fleet %s", pool.Verdict, fl.Verdict)
	}
}

// TestSweepValidation: construction rejects degenerate grids.
func TestSweepValidation(t *testing.T) {
	s := sharedScenario(t)
	if _, err := NewSweep(nil, AxisV(1)); !errors.Is(err, ErrSweepNoScenario) {
		t.Errorf("nil scenario: %v", err)
	}
	if _, err := NewSweep(s); !errors.Is(err, ErrSweepNoAxes) {
		t.Errorf("no axes: %v", err)
	}
	if _, err := NewSweep(s, AxisV()); !errors.Is(err, ErrSweepEmptyAxis) {
		t.Errorf("empty axis: %v", err)
	}
	if _, err := NewSweep(s, AxisV(1), AxisV(2)); !errors.Is(err, ErrSweepDuplicateAxis) {
		t.Errorf("duplicate axis: %v", err)
	}
}

// TestSweepApplyErrorsSurfaceBeforeRun: an invalid axis point fails the
// sweep at grid build, preserving the wrapped sentinel.
func TestSweepApplyErrorsSurfaceBeforeRun(t *testing.T) {
	s := sharedScenario(t)
	sw, err := NewSweep(s, AxisNetwork(NetworkMarkov(1.2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(context.Background()); !errors.Is(err, ErrBadVolatility) {
		t.Errorf("bad volatility: %v", err)
	}
	sw, err = NewSweep(s, AxisAllocator("nosuch"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(context.Background()); err == nil {
		t.Error("unknown allocator name must fail")
	}
	// Non-finite knobs are configuration errors, not garbage rows.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name       string
		axis       SweepAxis
		volatility bool // the error must wrap ErrBadVolatility
	}{
		{"v=NaN", AxisV(nan), false},
		{"v=+Inf", AxisV(inf), false},
		{"rate=NaN", AxisServiceRate(nan), false},
		{"rate=+Inf", AxisServiceRate(inf), false},
		{"arrivals=NaN", AxisArrivalRate(nan), false},
		{"arrivals=+Inf", AxisArrivalRate(inf), false},
		{"markov:NaN", AxisNetwork(NetworkMarkov(nan)), true},
		{"markov:+Inf", AxisNetwork(NetworkMarkov(inf)), true},
		{"markov:NaN:10", AxisNetwork(NetworkMarkovDwell(nan, 10)), true},
		{"markov:0.5:NaN", AxisNetwork(NetworkMarkovDwell(0.5, nan)), false},
		{"markov:0.5:+Inf", AxisNetwork(NetworkMarkovDwell(0.5, inf)), false},
	} {
		sw, err := NewSweep(s, tc.axis)
		if err != nil {
			t.Fatal(err)
		}
		sw.Slots = 20
		_, err = sw.Run(context.Background())
		switch {
		case err == nil:
			t.Errorf("%s: sweep ran", tc.name)
		case tc.volatility && !errors.Is(err, ErrBadVolatility):
			t.Errorf("%s: %v does not wrap ErrBadVolatility", tc.name, err)
		}
	}
}

// TestSweepAllocatorNeedsPoolBackend: allocator cells are rejected on
// the fleet backend.
func TestSweepAllocatorNeedsPoolBackend(t *testing.T) {
	s := sharedScenario(t)
	sw, err := NewSweep(s, AxisAllocator("equal"))
	if err != nil {
		t.Fatal(err)
	}
	sw.Backend = BackendFleet(4)
	sw.Slots = 50
	if _, err := sw.Run(context.Background()); !errors.Is(err, ErrSweepAllocatorBackend) {
		t.Errorf("allocator on fleet backend: %v", err)
	}
}

// TestSweepAllocatorRejectsControlAxes: crossing an allocator axis
// with a control-side axis it cannot apply (V, arrivals, policy,
// utility) fails instead of emitting duplicated rows dressed up as a
// sweep.
func TestSweepAllocatorRejectsControlAxes(t *testing.T) {
	s := sharedScenario(t)
	for _, axis := range []SweepAxis{
		AxisV(0.5, 2),
		AxisArrivalRate(0.9, 1.1),
		mustAxisPolicy(t, "proposed", "min"),
	} {
		sw, err := NewSweep(s, AxisAllocator("equal"), axis)
		if err != nil {
			t.Fatal(err)
		}
		sw.Slots = 50
		if _, err := sw.Run(context.Background()); !errors.Is(err, ErrSweepAllocatorAxes) {
			t.Errorf("allocator × %s axis: %v", axis.Name, err)
		}
	}
}

func mustAxisPolicy(t *testing.T, names ...string) SweepAxis {
	t.Helper()
	specs, err := policySpecs(names...)
	if err != nil {
		t.Fatal(err)
	}
	return AxisPolicy(specs...)
}

// TestSweepRejectsIgnoredV: a V factor or recalibration on a cell whose
// policy factory or recalibration overrides it fails the grid before
// any cell runs, instead of printing identical rows.
func TestSweepRejectsIgnoredV(t *testing.T) {
	s := sharedScenario(t)
	recal := SweepAxis{Name: "recal", Points: []AxisPoint{{
		Label: "on",
		Apply: func(c *SweepCell) error { c.RecalibrateV = true; return nil },
	}}}
	ran := false
	spy := AxisPolicy(PolicySpec{Name: "spy", New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
		ran = true
		return s.Controller()
	}})
	for _, tc := range []struct {
		name string
		axes []SweepAxis
	}{
		{"v × policy", []SweepAxis{AxisV(0.5, 2), spy}},
		{"recalibration × policy", []SweepAxis{recal, spy}},
		{"v × recalibration", []SweepAxis{AxisV(2), recal}},
	} {
		sw, err := NewSweep(s, tc.axes...)
		if err != nil {
			t.Fatal(err)
		}
		sw.Slots = 50
		if _, err := sw.Run(context.Background()); !errors.Is(err, ErrSweepIgnoredV) {
			t.Errorf("%s: err = %v, want ErrSweepIgnoredV", tc.name, err)
		}
	}
	if ran {
		t.Error("a cell ran before the grid was rejected")
	}
	// The default factor leaves nothing to ignore.
	sw, err := NewSweep(s, AxisV(1), spy)
	if err != nil {
		t.Fatal(err)
	}
	sw.Slots = 50
	if _, err := sw.Run(context.Background()); err != nil {
		t.Errorf("v=1 × policy: %v", err)
	}
}

// TestSweepShortPoolRowsUnclassified: a horizon too short to classify
// labels pool rows "unclassified", as fleet rows are, for a sim cell and
// an allocator cell alike.
func TestSweepShortPoolRowsUnclassified(t *testing.T) {
	s := sharedScenario(t)
	for _, axis := range []SweepAxis{AxisV(1), AxisAllocator("equal")} {
		row := runAxis(t, s, 6, axis)[0]
		if row.Verdict != "unclassified" {
			t.Errorf("%s cell: verdict %q, want unclassified", axis.Name, row.Verdict)
		}
		if row.Verdicts.Unclassified == 0 {
			t.Errorf("%s cell: tally %+v counts nothing unclassified", axis.Name, row.Verdicts)
		}
	}
}

// TestSweepRootCauseErrorPreferred: when one cell fails while its
// siblings abort on the fanned-out cancellation, Run reports the root
// cause, not context.Canceled.
func TestSweepRootCauseErrorPreferred(t *testing.T) {
	s := sharedScenario(t)
	boom := errors.New("boom")
	specs := make([]PolicySpec, 4)
	for i := range specs {
		i := i
		specs[i] = PolicySpec{
			Name: fmt.Sprintf("p%d", i),
			New: func(s *Scenario, _ *geom.RNG) (policy.Policy, error) {
				if i == 2 {
					return nil, boom
				}
				return s.Controller()
			},
		}
	}
	sw, err := NewSweep(s, AxisPolicy(specs...))
	if err != nil {
		t.Fatal(err)
	}
	sw.Workers = 4
	sw.Slots = 2000
	_, err = sw.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("want root cause, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("root cause masked by cancellation: %v", err)
	}
}

// TestSweepCancellation: an already-canceled context aborts the run with
// the context error.
func TestSweepCancellation(t *testing.T) {
	s := sharedScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw, err := NewSweep(s, AxisV(0.5, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	sw.Slots = 100_000
	if _, err := sw.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled run: %v", err)
	}
}

// TestSweepTableExport: the report's table carries numeric axes and the
// metric series; the text table aligns with the axes.
func TestSweepTableExport(t *testing.T) {
	s := sharedScenario(t)
	sw, err := NewSweep(s,
		AxisV(0.5, 1),
		AxisNetwork(NetworkStatic(), NetworkMarkov(0.3)),
	)
	if err != nil {
		t.Fatal(err)
	}
	sw.Slots = 80
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := rep.Table()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(tab.Series))
	for i, series := range tab.Series {
		names[i] = series.Name
		if len(series.Values) != 4 {
			t.Errorf("series %q has %d values, want 4", series.Name, len(series.Values))
		}
	}
	joined := strings.Join(names, ",")
	// The v axis is numeric and exported; the net axis is categorical
	// and skipped; the metric series always follow.
	if !strings.Contains(joined, "v") || strings.Contains(joined, "net") {
		t.Errorf("series = %v", names)
	}
	for _, want := range []string{"utility", "backlog", "p95_backlog", "p99_sojourn"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing series %q in %v", want, names)
		}
	}
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "cell,") {
		t.Errorf("csv header = %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	headers, cells := rep.TextTable()
	if len(cells) != 4 {
		t.Fatalf("text rows = %d", len(cells))
	}
	if headers[0] != "v" || headers[1] != "net" {
		t.Errorf("text headers = %v", headers)
	}
	for _, row := range cells {
		if len(row) != len(headers) {
			t.Errorf("ragged text row: %v", row)
		}
	}
}

// TestSweepMultiCellMetrics: an allocator axis crossed with a rate axis
// runs shared-budget cells with per-device verdict tallies.
func TestSweepMultiCellMetrics(t *testing.T) {
	s := sharedScenario(t)
	sw, err := NewSweep(s,
		AxisAllocator("equal", "proportional"),
		AxisServiceRate(1, 1.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	sw.Slots = 150
	sw.Configure(func(c *SweepCell) error {
		c.Devices = HeterogeneousSpecs(3)
		return nil
	})
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Sessions != 3 {
			t.Errorf("cell %d sessions = %d, want 3 devices", row.Cell, row.Sessions)
		}
		if row.Detail == nil || row.Detail.Multi == nil {
			t.Fatalf("cell %d missing multi detail", row.Cell)
		}
		total := row.Verdicts.Diverging + row.Verdicts.Converged +
			row.Verdicts.Stabilized + row.Verdicts.Unclassified
		if total != 3 {
			t.Errorf("cell %d verdict tally = %d", row.Cell, total)
		}
	}
}

// TestCellSeedDecorrelated: cell seeds differ from each other and from
// the base seed.
func TestCellSeedDecorrelated(t *testing.T) {
	seen := map[uint64]bool{7: true}
	for i := 0; i < 200; i++ {
		s := CellSeed(7, i)
		if seen[s] {
			t.Fatalf("cell %d collides", i)
		}
		seen[s] = true
	}
	if CellSeed(7, 0) == CellSeed(8, 0) {
		t.Error("base seed does not reach cell seeds")
	}
}
