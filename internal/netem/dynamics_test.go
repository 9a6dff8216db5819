package netem

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"qarv/internal/delay"
	"qarv/internal/geom"
)

func TestMarkovBandwidthValidation(t *testing.T) {
	cases := []MarkovBandwidth{
		{GoodRate: 0, BadRate: 1},
		{GoodRate: 1, BadRate: -1},
		{GoodRate: 1, PGoodBad: 1.5},
		{GoodRate: 1, PBadGood: -0.1},
		{GoodRate: math.Inf(1)},
	}
	for i, m := range cases {
		if err := m.Validate(); !errors.Is(err, ErrBadMarkov) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	ok := MarkovBandwidth{GoodRate: 100, BadRate: 10, PGoodBad: 0.1, PBadGood: 0.3}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMarkovBandwidthDeterministicAndTwoLevel(t *testing.T) {
	build := func() *MarkovBandwidth {
		return &MarkovBandwidth{
			GoodRate: 100, BadRate: 20,
			PGoodBad: 0.2, PBadGood: 0.3,
			RNG: geom.NewRNG(7),
		}
	}
	a, b := build(), build()
	sawBad, sawGood := false, false
	for slot := 0; slot < 500; slot++ {
		ra, rb := a.Service(slot), b.Service(slot)
		if ra != rb {
			t.Fatalf("slot %d: same seed diverged: %v vs %v", slot, ra, rb)
		}
		// Idempotent within the slot.
		if again := a.Service(slot); again != ra {
			t.Fatalf("slot %d: repeated call changed rate %v -> %v", slot, ra, again)
		}
		switch ra {
		case 100:
			sawGood = true
		case 20:
			sawBad = true
		default:
			t.Fatalf("slot %d: rate %v is neither state", slot, ra)
		}
	}
	if !sawGood || !sawBad {
		t.Fatalf("chain never mixed: good=%v bad=%v", sawGood, sawBad)
	}
}

func TestMarkovBandwidthReseedResets(t *testing.T) {
	m := &MarkovBandwidth{GoodRate: 100, BadRate: 20, PGoodBad: 0.3, PBadGood: 0.3, RNG: geom.NewRNG(1)}
	var first []float64
	for slot := 0; slot < 100; slot++ {
		first = append(first, m.Service(slot))
	}
	m.Reseed(geom.NewRNG(1))
	for slot := 0; slot < 100; slot++ {
		if got := m.Service(slot); got != first[slot] {
			t.Fatalf("slot %d after reseed: %v != %v", slot, got, first[slot])
		}
	}
}

func TestMarkovBandwidthNilRNGHoldsStartState(t *testing.T) {
	m := &MarkovBandwidth{GoodRate: 100, BadRate: 20, PGoodBad: 1, PBadGood: 1, StartBad: true}
	for slot := 0; slot < 10; slot++ {
		if got := m.Service(slot); got != 20 {
			t.Fatalf("slot %d: %v, want start-state rate 20", slot, got)
		}
	}
}

func TestTraceBandwidthValidation(t *testing.T) {
	if _, err := NewTraceBandwidth(nil, 0); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("zero-length trace: %v", err)
	}
	if _, err := NewTraceBandwidth([]TracePoint{{Slot: 5, BytesPerSlot: 1}, {Slot: 5, BytesPerSlot: 2}}, 0); !errors.Is(err, ErrBadTrace) {
		t.Errorf("duplicate slots: %v", err)
	}
	if _, err := NewTraceBandwidth([]TracePoint{{Slot: -1, BytesPerSlot: 1}}, 0); !errors.Is(err, ErrBadTrace) {
		t.Errorf("negative slot: %v", err)
	}
	if _, err := NewTraceBandwidth([]TracePoint{{Slot: 0, BytesPerSlot: -3}}, 0); !errors.Is(err, ErrBadTrace) {
		t.Errorf("negative rate: %v", err)
	}
	if _, err := NewTraceBandwidth([]TracePoint{{Slot: 10, BytesPerSlot: 1}}, 10); !errors.Is(err, ErrBadTrace) {
		t.Errorf("period inside trace: %v", err)
	}
}

func TestTraceBandwidthSingleEntryIsConstant(t *testing.T) {
	tb, err := NewTraceBandwidth([]TracePoint{{Slot: 100, BytesPerSlot: 77}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A single-entry trace is a constant link — including slots before
	// the entry's own slot (the first rate extends backward).
	for _, slot := range []int{0, 50, 100, 5000} {
		if got := tb.Service(slot); got != 77 {
			t.Fatalf("slot %d: %v", slot, got)
		}
	}
}

func TestTraceBandwidthPiecewiseAndPeriod(t *testing.T) {
	tb, err := NewTraceBandwidth([]TracePoint{
		{Slot: 0, BytesPerSlot: 100},
		{Slot: 10, BytesPerSlot: 50},
		{Slot: 20, BytesPerSlot: 0},
	}, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := func(slot int) float64 {
		switch m := slot % 30; {
		case m < 10:
			return 100
		case m < 20:
			return 50
		default:
			return 0
		}
	}
	for slot := 0; slot < 120; slot++ {
		if got := tb.Service(slot); got != want(slot) {
			t.Fatalf("slot %d: got %v want %v", slot, got, want(slot))
		}
	}
	// Without a period the last rate holds forever.
	hold, err := NewTraceBandwidth([]TracePoint{{Slot: 0, BytesPerSlot: 9}, {Slot: 5, BytesPerSlot: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hold.Service(10_000); got != 4 {
		t.Fatalf("holding rate: %v", got)
	}
}

func TestReadTraceCSV(t *testing.T) {
	in := "# measured uplink\nslot,bytes_per_slot\n0,1000\n40,250.5\n\n90,0\n"
	tb, err := ReadTraceCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Points) != 3 {
		t.Fatalf("points: %v", tb.Points)
	}
	if tb.Service(39) != 1000 || tb.Service(40) != 250.5 || tb.Service(95) != 0 {
		t.Fatalf("piecewise lookup wrong: %v", tb.Points)
	}
	if _, err := ReadTraceCSV(strings.NewReader("")); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty file: %v", err)
	}
	if _, err := ReadTraceCSV(strings.NewReader("0,1\nnonsense\n")); !errors.Is(err, ErrBadTrace) {
		t.Errorf("malformed line: %v", err)
	}
}

func TestReadTraceJSON(t *testing.T) {
	arr := `[{"slot":0,"bytes_per_slot":500},{"slot":10,"bytes_per_slot":125}]`
	tb, err := ReadTraceJSON(strings.NewReader(arr))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Service(3) != 500 || tb.Service(12) != 125 || tb.Period != 0 {
		t.Fatalf("array form: %+v", tb)
	}
	obj := `{"period": 20, "points": [{"slot":0,"bytes_per_slot":500},{"slot":10,"bytes_per_slot":125}]}`
	tb, err = ReadTraceJSON(strings.NewReader(obj))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Period != 20 || tb.Service(25) != 500 {
		t.Fatalf("object form: %+v", tb)
	}
	if _, err := ReadTraceJSON(strings.NewReader(`{"points":[]}`)); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("empty points: %v", err)
	}
	if _, err := ReadTraceJSON(strings.NewReader(`{]`)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad json: %v", err)
	}
}

func TestHandoffBandwidthValidation(t *testing.T) {
	cases := []HandoffBandwidth{
		{BaseRate: 0, MeanIntervalSlots: 10},
		{BaseRate: 1, MeanIntervalSlots: 0},
		{BaseRate: 1, MeanIntervalSlots: 10, OutageSlots: -1},
		{BaseRate: 1, MeanIntervalSlots: 10, ScaleLo: 2, ScaleHi: 1},
	}
	for i, h := range cases {
		if err := h.Validate(); !errors.Is(err, ErrBadHandoff) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	ok := HandoffBandwidth{BaseRate: 100, MeanIntervalSlots: 50, OutageSlots: 2, ScaleLo: 0.5, ScaleHi: 1.5}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	// A Base process stands in for BaseRate and is validated through.
	nested := HandoffBandwidth{Base: &MarkovBandwidth{GoodRate: -1}, MeanIntervalSlots: 10}
	if err := nested.Validate(); !errors.Is(err, ErrBadMarkov) {
		t.Errorf("nested validation: %v", err)
	}
}

func TestHandoffBandwidthOutagesAndScales(t *testing.T) {
	h := &HandoffBandwidth{
		BaseRate:          100,
		MeanIntervalSlots: 30,
		OutageSlots:       3,
		ScaleLo:           0.5,
		ScaleHi:           1.5,
		RNG:               geom.NewRNG(3),
	}
	outages, scaleChanges := 0, 0
	lastRate := h.Service(0)
	if lastRate != 100 {
		t.Fatalf("initial rate %v, want base 100", lastRate)
	}
	for slot := 1; slot < 2000; slot++ {
		r := h.Service(slot)
		if r == 0 {
			outages++
			continue
		}
		if r < 0.5*100-1e-9 || r > 1.5*100+1e-9 {
			t.Fatalf("slot %d: rate %v outside scale range", slot, r)
		}
		if r != lastRate {
			scaleChanges++
		}
		lastRate = r
	}
	if outages == 0 {
		t.Fatal("no outage slots over 2000 slots at mean interval 30")
	}
	if scaleChanges == 0 {
		t.Fatal("cell scale never changed across handoffs")
	}
}

func TestHandoffBandwidthNilRNGNeverHandsOff(t *testing.T) {
	h := &HandoffBandwidth{BaseRate: 100, MeanIntervalSlots: 1, OutageSlots: 5}
	for slot := 0; slot < 100; slot++ {
		if got := h.Service(slot); got != 100 {
			t.Fatalf("slot %d: %v", slot, got)
		}
	}
}

func TestHandoffBandwidthReseedReplays(t *testing.T) {
	build := func() *HandoffBandwidth {
		return &HandoffBandwidth{
			BaseRate: 100, MeanIntervalSlots: 20, OutageSlots: 2,
			ScaleLo: 0.5, ScaleHi: 1.5,
		}
	}
	a, b := build(), build()
	a.Reseed(geom.NewRNG(11))
	b.Reseed(geom.NewRNG(11))
	for slot := 0; slot < 500; slot++ {
		if ra, rb := a.Service(slot), b.Service(slot); ra != rb {
			t.Fatalf("slot %d: %v vs %v", slot, ra, rb)
		}
	}
}

func TestLinkDynamicsApplySetsRateAndSuspendsOnOutage(t *testing.T) {
	tb, err := NewTraceBandwidth([]TracePoint{
		{Slot: 0, BytesPerSlot: 100},
		{Slot: 2, BytesPerSlot: 0},  // outage slots 2,3
		{Slot: 4, BytesPerSlot: 50}, // recovery at half rate
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var u uplink
	frames := map[int]float64{0: 100, 3: 100, 4: 100}
	for slot := 0; slot < 8; slot++ {
		if b, ok := frames[slot]; ok {
			u.step(slot, tb.Service(slot), b)
		} else {
			u.step(slot, tb.Service(slot))
		}
	}
	// Slot 0 serves the first frame at rate 100. The frame of slot 3
	// waits out the outage and drains at the recovered 50 B/slot in
	// slots 4-5; the frame of slot 4 queues behind it, through slot 7.
	want := []int{0, 5, 7}
	if len(u.done) != len(want) {
		t.Fatalf("completions %+v, want %d", u.done, len(want))
	}
	for i, c := range u.done {
		if c.CompletedAt != want[i] {
			t.Errorf("frame %d completed at %d, want %d", c.ID, c.CompletedAt, want[i])
		}
	}
}

// Regression (review finding): outages must cost service even on a
// loaded link. Every outage slot serves nothing, so under a standing
// queue each one leaves exactly one slot of capacity more in the
// backlog.
func TestOutageDelaysFutureEnqueuesUnderStandingQueue(t *testing.T) {
	run := func(outage bool) float64 {
		tb, err := NewTraceBandwidth([]TracePoint{
			{Slot: 0, BytesPerSlot: 100},
			{Slot: 5, BytesPerSlot: 0}, // outage slots 5..14
			{Slot: 15, BytesPerSlot: 100},
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var u uplink
		for slot := 0; slot < 30; slot++ {
			rate := 100.0
			if outage {
				rate = tb.Service(slot)
			}
			// 1.5x overload: a standing queue builds from the start.
			u.step(slot, rate, 150)
		}
		return u.q.Level()
	}
	withOutage, without := run(true), run(false)
	// 10 outage slots must leave exactly 10 slots of capacity queued.
	if got := withOutage - without; got != 1000 {
		t.Fatalf("outage under load left %v more bytes queued, want 1000 (no-op outage regression)", got)
	}
}

// TestForRunIsolatesState: a run's process is a copy on its own
// streams, so the prototype sees nothing of the run, equal streams
// replay the same path, and a trace is shared, not copied.
func TestForRunIsolatesState(t *testing.T) {
	orig := &HandoffBandwidth{
		BaseRate: 100, MeanIntervalSlots: 10, OutageSlots: 2,
		ScaleLo: 0.5, ScaleHi: 1.5,
		Base: &MarkovBandwidth{GoodRate: 1, BadRate: 0.5, PGoodBad: 0.2, PBadGood: 0.2},
	}
	seeded := func() delay.ServiceProcess {
		return delay.ForRun(orig, func() *geom.RNG { return geom.NewRNG(5) })
	}
	c := seeded()
	if c.(*HandoffBandwidth).Base == orig.Base {
		t.Fatal("the run shares the prototype's Base")
	}
	for slot := 0; slot < 200; slot++ {
		c.Service(slot)
	}
	// The prototype saw none of it: no RNG, no chain state, same Base.
	if orig.RNG != nil || orig.init {
		t.Error("the run leaked state into the prototype handoff process")
	}
	if mb := orig.Base.(*MarkovBandwidth); mb.RNG != nil || mb.init {
		t.Error("the run leaked state into the prototype's nested markov process")
	}
	// And two runs on equal streams replay identical paths.
	c2, c3 := seeded(), seeded()
	for slot := 0; slot < 200; slot++ {
		if a, b := c2.Service(slot), c3.Service(slot); a != b {
			t.Fatalf("slot %d: equally seeded runs diverged: %v vs %v", slot, a, b)
		}
	}
	// A trace is a pure function of the slot: shared, not copied.
	tb := DefaultDiurnalTrace()
	if delay.ForRun(tb, func() *geom.RNG { return geom.NewRNG(5) }) != delay.ServiceProcess(tb) {
		t.Error("stateless trace was copied")
	}
}

// TestForRunStreams: a composite shape draws one stream per run and
// splits its parts' streams from it as Reseed does, so a run replays
// the prototype reseeded with that one stream.
func TestForRunStreams(t *testing.T) {
	trace := DefaultDiurnalTrace()
	cases := []struct {
		name  string
		build func() delay.ServiceProcess
	}{
		{"handoff(markov)", func() delay.ServiceProcess {
			return &HandoffBandwidth{
				BaseRate: 100, MeanIntervalSlots: 10, OutageSlots: 2, ScaleLo: 0.5, ScaleHi: 1.5,
				Base: &MarkovBandwidth{GoodRate: 1, BadRate: 0.5, PGoodBad: 0.2, PBadGood: 0.2},
			}
		}},
		{"modulated(noisy, trace)", func() delay.ServiceProcess {
			return &delay.ModulatedService{Inner: &delay.NoisyService{Mean: 100, Std: 10}, Factor: trace}
		}},
	}
	for _, tc := range cases {
		draws := 0
		run := delay.ForRun(tc.build(), func() *geom.RNG { draws++; return geom.NewRNG(7) })
		if draws != 1 {
			t.Errorf("%s: %d streams drawn, want 1", tc.name, draws)
		}
		want := tc.build()
		want.(interface{ Reseed(*geom.RNG) }).Reseed(geom.NewRNG(7))
		for slot := 0; slot < 300; slot++ {
			if a, b := run.Service(slot), want.Service(slot); a != b {
				t.Fatalf("%s slot %d: run %v, reseeded prototype %v", tc.name, slot, a, b)
			}
		}
	}
	mod := &delay.ModulatedService{Inner: &delay.NoisyService{Mean: 100, Std: 10}, Factor: trace}
	if run := delay.ForRun(mod, func() *geom.RNG { return geom.NewRNG(7) }); run.(*delay.ModulatedService).Factor != delay.ServiceProcess(trace) {
		t.Error("the modulated run copied its trace factor")
	}
}

func TestDefaultPresets(t *testing.T) {
	if err := DefaultMarkovFactor(nil).Validate(); err != nil {
		t.Errorf("markov preset invalid: %v", err)
	}
	if err := DefaultHandoffFactor(nil).Validate(); err != nil {
		t.Errorf("handoff preset invalid: %v", err)
	}
	tb := DefaultDiurnalTrace()
	if err := tb.Validate(); err != nil {
		t.Errorf("diurnal preset invalid: %v", err)
	}
	if tb.Service(0) != 1 || tb.Service(120) != 0.6 || tb.Service(240) != 1 {
		t.Errorf("diurnal shape wrong: %v %v %v", tb.Service(0), tb.Service(120), tb.Service(240))
	}
}

// Regression (review finding): a t regression — the same session Run
// again, restarting its slot loop at 0 — must reset the stateful
// processes rather than freeze them (the catch-up loop `lastT < t`
// would otherwise never execute and the chain would return its final
// run-1 state as a constant forever).
func TestStatefulProcessesResetOnRestartedSlotLoop(t *testing.T) {
	m := &MarkovBandwidth{GoodRate: 100, BadRate: 20, PGoodBad: 0.3, PBadGood: 0.3, RNG: geom.NewRNG(9)}
	for slot := 0; slot < 300; slot++ {
		m.Service(slot)
	}
	levels := map[float64]bool{}
	for slot := 0; slot < 300; slot++ { // second "run"
		levels[m.Service(slot)] = true
	}
	if len(levels) != 2 {
		t.Fatalf("restarted markov chain froze: saw levels %v, want both states", levels)
	}

	h := &HandoffBandwidth{BaseRate: 100, MeanIntervalSlots: 20, OutageSlots: 2, RNG: geom.NewRNG(9)}
	for slot := 0; slot < 300; slot++ {
		h.Service(slot)
	}
	sawOutage := false
	for slot := 0; slot < 300; slot++ { // second "run"
		if h.Service(slot) == 0 {
			sawOutage = true
		}
	}
	if !sawOutage {
		t.Fatal("restarted handoff process froze: no outage in 300 slots at mean dwell 20")
	}
}

func TestTraceBandwidthNormalized(t *testing.T) {
	// A measured absolute trace becomes fractions of its peak.
	abs, err := NewTraceBandwidth([]TracePoint{
		{Slot: 0, BytesPerSlot: 20_000},
		{Slot: 50, BytesPerSlot: 10_000},
		{Slot: 100, BytesPerSlot: 0},
	}, 150)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := abs.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Service(0) != 1 || norm.Service(60) != 0.5 || norm.Service(110) != 0 {
		t.Fatalf("normalized rates wrong: %v %v %v", norm.Service(0), norm.Service(60), norm.Service(110))
	}
	if norm.Period != 150 {
		t.Errorf("period dropped: %d", norm.Period)
	}
	// The original is untouched and a factor trace round-trips.
	if abs.Service(0) != 20_000 {
		t.Error("Normalized mutated the receiver")
	}
	factor := DefaultDiurnalTrace()
	same, err := factor.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 240; slot++ {
		if same.Service(slot) != factor.Service(slot) {
			t.Fatalf("peak-1 factor trace changed at slot %d", slot)
		}
	}
	// All-zero traces have no peak to normalize against.
	zero, err := NewTraceBandwidth([]TracePoint{{Slot: 0, BytesPerSlot: 0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zero.Normalized(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("all-zero normalize: %v", err)
	}
}

func TestLoadFactorTrace(t *testing.T) {
	// Empty path: the shared built-in diurnal pattern.
	tb, err := LoadFactorTrace("")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Service(120) != 0.6 {
		t.Errorf("builtin trace shape: %v", tb.Service(120))
	}
	// A file loads peak-normalized.
	dir := t.TempDir()
	path := dir + "/m.csv"
	if err := os.WriteFile(path, []byte("0,20000\n10,5000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tb, err = LoadFactorTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Service(0) != 1 || tb.Service(10) != 0.25 {
		t.Errorf("normalized file trace: %v %v", tb.Service(0), tb.Service(10))
	}
	if _, err := LoadFactorTrace(dir + "/missing.csv"); err == nil {
		t.Error("missing file accepted")
	}
}
