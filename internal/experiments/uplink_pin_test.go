package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"qarv/internal/alloc"
	"qarv/internal/netem"
)

// pinDigest is the SHA-256 of v's JSON encoding. A struct is encoded
// field by field with its Params left out: Params holds funcs and
// changes shape by design, while every other field is the run's output.
func pinDigest(t *testing.T, v any) string {
	t.Helper()
	rv := reflect.Indirect(reflect.ValueOf(v))
	if rv.Kind() == reflect.Struct {
		m := map[string]any{}
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Type().Field(i); f.Name != "Params" {
				m[f.Name] = rv.Field(i).Interface()
			}
		}
		v = m
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestUplinkRunsPinned pins the byte-domain runs and the scenario
// calibration. The "old ..." cases are the Bandwidth, LatencySlots,
// JitterSlots and LossProb scalars the uplink was once shaped by,
// rewritten as the Link their defaults resolved to. The Markov cases
// were recorded with absolute-rate processes and are now written as
// factors on the calibrated bandwidth, with the same bytes. Every
// offload digest was re-pinned when Offload became SharedUplink at one
// unit device: the kernel's byte backlog replaced the link's frozen
// serialization schedule, latencies count whole completion slots, and
// the dynamics draw from the shared uplink's seed.
func TestUplinkRunsPinned(t *testing.T) {
	base := offloadParams()
	offload := func(mutate func(*OffloadParams)) *OffloadResult {
		p := base
		mutate(&p)
		res, err := OffloadContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	offloads := []struct {
		name, want string
		mutate     func(*OffloadParams)
	}{
		{"default", "c1c062a2a2b7137147df518a69961dc83dfe2a0618200df4d15a1d579b49907e", func(*OffloadParams) {}},
		{"link zeros", "6eee6ffee62b3725fc249e34f20c7741eabdde95076c1b1d8d2f2d2ae06dd78c", func(p *OffloadParams) {
			p.Link = &netem.LinkConfig{}
		}},
		{"fixed 20k link", "e77e6833764b37d85bcab350fbe474a10653c26e484c2005faba1f14a22f8475", func(p *OffloadParams) {
			p.Link = &netem.LinkConfig{BytesPerSlot: 20_000, LatencySlots: 1, JitterSlots: 0.1, LossProb: 0.001}
		}},
		{"drop window", "7784d3615e024e4d047a0bddf5f0c73b81ebaeb767fded6adc99670166430c28", func(p *OffloadParams) {
			p.Slots = 1600
			p.Dynamics = dropTrace(t, 600, 1000, 0.5)
		}},
		{"markov dynamics", "d560bf88734f1f5f433418b052dd313fe423523eaccfd094979def93f5686aa3", func(p *OffloadParams) {
			p.Dynamics = &netem.MarkovBandwidth{GoodRate: 1.5, BadRate: 0.5, PGoodBad: 0.1, PBadGood: 0.1}
		}},
		{"old Bandwidth: 25000", "4b6a957e1b372c1cc8fb1456cd68cdc19309d441a3d715b3de4906431bc97706", func(p *OffloadParams) {
			p.Link = &netem.LinkConfig{BytesPerSlot: 25_000, LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.01}
		}},
		{"old LossProb: 0.2", "c07b23364b5f71c8204327aaf0e25bd7d710dd9477cc64d5a952206f84ccec2d", func(p *OffloadParams) {
			p.Link = &netem.LinkConfig{LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.2}
		}},
	}
	for _, tc := range offloads {
		if got := pinDigest(t, offload(tc.mutate)); got != tc.want {
			t.Errorf("offload %s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	shared := func(p SharedUplinkParams) *SharedUplinkResult {
		res, err := SharedUplink(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sdef := shared(SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 800, KneeSlot: 200, Seed: 3},
		Devices:        3,
	})
	shareds := []struct {
		name, want string
		res        *SharedUplinkResult
	}{
		{"default", "44959db96afddf30d834c3c885b918ebb8cae98fd1f479658e87ad8066934763", sdef},
		{"heterogeneous maxweight", "668c121056be152ae18fd3ab7e142e44112c6748b56b786c0a69bc36132b78c7", shared(SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 600, KneeSlot: 150, Seed: 3},
			Specs:          HeterogeneousSpecs(4),
			Allocator:      alloc.NewMaxWeight(),
		})},
		{"link zeros", "05acb5a554edb1b0b7f0e39d9307a89088b2e2d9223aea780be85eac15e58f5e", shared(SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 400, KneeSlot: 100, Seed: 3},
			Devices:        2,
			Link:           &netem.LinkConfig{},
		})},
		{"markov process", "9389d9f0c0c0c372817ec43aea83aa878dc1b8f0c311f72519770f5e5a4ee4fb", shared(SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 800, KneeSlot: 200, Seed: 3},
			Devices:        3,
			Allocator:      alloc.NewMaxWeight(),
			Dynamics:       &netem.MarkovBandwidth{GoodRate: 1.4, BadRate: 0.6, PGoodBad: 0.1, PBadGood: 0.1},
		})},
	}
	for _, tc := range shareds {
		if got := pinDigest(t, tc.res); got != tc.want {
			t.Errorf("shared uplink %s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	scn, err := NewScenario(ScenarioParams{Samples: 40_000, Slots: 400, KneeSlot: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pinDigest(t, []any{scn.ServiceRate, scn.V, scn.Profile}),
		"d1a8aa2bf04db6da9dc7ee73a02da27b0602be8a87163d4379a779185c2fb7f0"; got != want {
		t.Errorf("scenario: digest %s, want %s", got, want)
	}
	prof, _ := contentProfiles(t)
	cs, err := NewContentScenario(ScenarioParams{KneeSlot: 150, Slots: 300}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pinDigest(t, []any{cs.ServiceRate, cs.V, cs.Profile}),
		"85ba30ea50c8abcb24ebe0cff779d9b9aa35efe623ecfd31bb878322a43dcf3a"; got != want {
		t.Errorf("content scenario: digest %s, want %s", got, want)
	}
}
