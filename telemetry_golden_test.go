package qarv

// Golden pins for per-slot telemetry: the metric snapshot JSON and the
// trace_event JSON of three small runs — a single-device sim run whose
// bounded backlog drops work (sim.Config's MaxBacklog, which no session
// option sets), a facade session sharing an edge among three devices
// under the EXP3 bandit allocator with Markov-modulated service, and a
// one-device SharedUplink run over a lossy uplink — must match the files
// under testdata/telemetry byte for byte. The goldens were
// generated on linux/amd64; regenerate them with
//
//	go test -run TestTelemetryGoldens -update-telemetry-goldens .
//
// only for an intended change to what telemetry records.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/netem"
	"qarv/internal/policy"
	"qarv/internal/sim"
)

var updateTelemetryGoldens = flag.Bool("update-telemetry-goldens", false,
	"rewrite testdata/telemetry from the current telemetry output")

func TestTelemetryGoldens(t *testing.T) {
	const slots = 60
	cases := []struct {
		name string
		// simCfg or uplink, when set, is run directly; otherwise the
		// session that opts builds is.
		simCfg func(t *testing.T) sim.Config
		uplink *SharedUplinkParams
		opts   func(t *testing.T) []Option
		// want lists trace records the case exists to cover, and
		// positive the counters it must drive above zero.
		want     []string
		positive []string
	}{
		{
			name: "sim",
			simCfg: func(t *testing.T) sim.Config {
				// Depth 5 costs 20000 against a 4000 service rate, so
				// a 15000 cap overflows whenever the threshold policy
				// climbs to it — by more than a whole frame when two
				// arrive at once — and the capped backlog still crosses
				// the policy's 9000 step-down threshold.
				cost, util := cheapModels(t)
				p, err := policy.NewThreshold([]int{2, 3, 4, 5}, 3000, 9000)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{
					Policy:     p,
					Arrivals:   &PoissonArrivals{Mean: 1.5},
					Cost:       cost,
					Utility:    util,
					Service:    &ConstantService{Rate: 4000},
					Slots:      slots,
					MaxBacklog: 15000,
				}
				// The streams WithSeed(3) hands a sim session.
				reseed(geom.NewRNG(3), cfg.Policy, cfg.Arrivals, cfg.Service)
				return cfg
			},
			want:     []string{`"name":"drop","cat":"sim"`, `"name":"depth","cat":"sim"`},
			positive: []string{"sim_frames_dropped_total", "sim_frames_completed_total"},
		},
		{
			name: "multi",
			opts: func(t *testing.T) []Option {
				cost, util := cheapModels(t)
				devs := make([]Device, 3)
				for i := range devs {
					p, err := policy.NewThreshold([]int{2, 3, 4, 5}, 3000, 9000)
					if err != nil {
						t.Fatal(err)
					}
					devs[i] = Device{Policy: p, Cost: cost, Utility: util,
						Arrivals: &PoissonArrivals{Mean: 1}}
				}
				bandit := NewBandit(4)
				bandit.Reseed(NewRNG(11))
				return []Option{
					WithDevices(devs...),
					WithAllocator(bandit),
					WithService(&ModulatedService{
						Inner:  &ConstantService{Rate: 3 * 4000},
						Factor: DefaultMarkovFactor(nil), // seeded by WithSeed
					}),
					WithSlots(slots),
					WithSeed(17),
				}
			},
			want:     []string{`"name":"bandit:4","cat":"alloc"`, `"name":"slot","cat":"sim"`},
			positive: []string{"sim_frames_completed_total", "alloc_slots_total"},
		},
		{
			name: "offload",
			uplink: &SharedUplinkParams{
				ScenarioParams: ScenarioParams{Samples: 40_000, KneeSlot: 50, Slots: slots, Seed: 5},
				Devices:        1,
				Link:           &netem.LinkConfig{LatencySlots: 1, JitterSlots: 0.3, LossProb: 0.2},
			},
			want:     []string{`"name":"loss","cat":"offload"`, `"name":"depth","cat":"sim"`},
			positive: []string{"offload_frames_lost_total"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewMetricsRegistry()
			rec := NewFlightRecorder(0)
			switch {
			case tc.simCfg != nil:
				cfg := tc.simCfg(t)
				cfg.Metrics, cfg.Recorder = reg, rec
				if _, err := sim.RunContext(context.Background(), cfg); err != nil {
					t.Fatal(err)
				}
			case tc.uplink != nil:
				p := *tc.uplink
				p.Metrics, p.Recorder = reg, rec
				if _, err := SharedUplink(context.Background(), p); err != nil {
					t.Fatal(err)
				}
			default:
				s, err := NewSession(append(tc.opts(t), WithTelemetry(reg), WithFlightRecorder(rec))...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if rec.Dropped() != 0 {
				t.Fatalf("flight recorder evicted %d records; the golden would be partial", rec.Dropped())
			}
			var metrics, trace bytes.Buffer
			if err := reg.Snapshot().EncodeJSON(&metrics); err != nil {
				t.Fatal(err)
			}
			if err := rec.WriteTrace(&trace); err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(trace.String(), w) {
					t.Errorf("trace lacks %s records", w)
				}
			}
			for _, name := range tc.positive {
				if reg.Counter(name).Value() <= 0 {
					t.Errorf("%s stayed at zero", name)
				}
			}
			checkGolden(t, filepath.Join("testdata", "telemetry", tc.name+".metrics.json"), metrics.Bytes())
			checkGolden(t, filepath.Join("testdata", "telemetry", tc.name+".trace.json"), trace.Bytes())
		})
	}
}

// checkGolden compares got with the golden file at path, rewriting the
// file instead under -update-telemetry-goldens.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateTelemetryGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (%d bytes, want %d)", path, len(got), len(want))
	}
}
