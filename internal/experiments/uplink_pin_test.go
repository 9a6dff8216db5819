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
	"qarv/internal/queueing"
	"qarv/internal/sim"
)

// pinDigest is the SHA-256 of v's JSON encoding.
func pinDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinnedResult is a sim.Result as the uplink pins encode it: the fields
// in their order from when Result still kept the per-slot Arrived and
// Served series, which the slot events carry now.
type pinnedResult struct {
	PolicyName     string
	Backlog        []float64
	Depth          []int
	Arrived        []float64
	Served         []float64
	Utility        []float64
	Completed      []queueing.Completed
	DroppedWork    float64
	DroppedFrames  int
	MeanSojourn    float64
	Little         queueing.LittleEstimator
	TimeAvgUtility float64
	TimeAvgBacklog float64
	FinalBacklog   float64
	MaxBacklog     float64
}

// uplinkPin runs p and returns what the pins hash: the result's fields
// by name with Params left out (it holds funcs and changes shape by
// design, while every other field is the run's output), and each
// device's result with the Arrived and Served series its slot events
// carried.
func uplinkPin(t *testing.T, p SharedUplinkParams) map[string]any {
	t.Helper()
	var arrived, served [][]float64
	p.Observer = func(e sim.SlotEvent) {
		for len(arrived) <= e.Device {
			arrived, served = append(arrived, nil), append(served, nil)
		}
		arrived[e.Device] = append(arrived[e.Device], e.Arrived)
		served[e.Device] = append(served[e.Device], e.Served)
	}
	res, err := SharedUplink(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]any{}
	rv := reflect.ValueOf(res).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.Name != "Params" {
			fields[f.Name] = rv.Field(i).Interface()
		}
	}
	devices := make([]pinnedResult, len(res.Multi.PerDevice))
	for i, r := range res.Multi.PerDevice {
		devices[i] = pinnedResult{r.PolicyName, r.Backlog, r.Depth, arrived[i], served[i], r.Utility, r.Completed,
			r.DroppedWork, r.DroppedFrames, r.MeanSojourn, r.Little, r.TimeAvgUtility, r.TimeAvgBacklog, r.FinalBacklog, r.MaxBacklog}
	}
	fields["Multi"] = struct {
		PerDevice           []pinnedResult
		Allocator           string
		TotalTimeAvgBacklog float64
		MeanTimeAvgUtility  float64
	}{devices, res.Multi.Allocator, res.Multi.TotalTimeAvgBacklog, res.Multi.MeanTimeAvgUtility}
	return fields
}

// TestUplinkRunsPinned pins the byte-domain runs and the scenario
// calibration. The one-device cases are the single-device edge-offload
// runs. Their "old ..." cases are the Bandwidth, LatencySlots,
// JitterSlots and LossProb scalars the uplink was once shaped by,
// rewritten as the Link their defaults resolved to, and their Markov
// case is a factor on the calibrated bandwidth. The shared-uplink
// digests were re-pinned when the result gained V and Latency; hashed
// without those two fields, each gives its earlier digest.
func TestUplinkRunsPinned(t *testing.T) {
	base := offloadParams()
	shared := func(p SharedUplinkParams) map[string]any { return uplinkPin(t, p) }
	oneDevices := []struct {
		name, want string
		mutate     func(*SharedUplinkParams)
	}{
		{"default", "5899896428ed0616ea923118ddf1d4669500c2a6afe45830f439dcfdb48a5b3d", func(*SharedUplinkParams) {}},
		{"link zeros", "ce14267cbc3fa6de6181773a77c1ab600a59a7b125fe76419b1fa81451f04690", func(p *SharedUplinkParams) {
			p.Link = &netem.LinkConfig{}
		}},
		{"fixed 20k link", "386e2a7b93958c6af1c685ef8ebf6d0b74eae7c97e37d06d0680f7f99804b0d5", func(p *SharedUplinkParams) {
			p.Link = &netem.LinkConfig{BytesPerSlot: 20_000, LatencySlots: 1, JitterSlots: 0.1, LossProb: 0.001}
		}},
		{"drop window", "af7b3bea2907f89c231f3c71850a476243f231dd4da92805d93cfd959c3281cd", func(p *SharedUplinkParams) {
			p.Slots = 1600
			p.Dynamics = dropTrace(t, 600, 1000, 0.5)
		}},
		{"markov dynamics", "b3e9d8b9fb7f02c2a3acfa414e6ca71569739001e8b6e529ebd9862a9426dfa8", func(p *SharedUplinkParams) {
			p.Dynamics = &netem.MarkovBandwidth{GoodRate: 1.5, BadRate: 0.5, PGoodBad: 0.1, PBadGood: 0.1}
		}},
		{"old Bandwidth: 25000", "c2ca849738a07d5fb9d03141e3ed0f61180c66811b97ba284561612d46deb881", func(p *SharedUplinkParams) {
			p.Link = &netem.LinkConfig{BytesPerSlot: 25_000, LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.01}
		}},
		{"old LossProb: 0.2", "557927d926e8af384839222942a8239255baf1e6c34d62065daf365c3aa0ccb4", func(p *SharedUplinkParams) {
			p.Link = &netem.LinkConfig{LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.2}
		}},
	}
	for _, tc := range oneDevices {
		p := SharedUplinkParams{ScenarioParams: base.ScenarioParams, Devices: 1}
		tc.mutate(&p)
		if got := pinDigest(t, shared(p)); got != tc.want {
			t.Errorf("one-device uplink %s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	sdef := shared(SharedUplinkParams{
		ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 800, KneeSlot: 200, Seed: 3},
		Devices:        3,
	})
	shareds := []struct {
		name, want string
		res        map[string]any
	}{
		{"default", "ffbdbaf24c090afde0f6d7fee8a0057b7835f346b91b8c8eb6aff6f1a1776c02", sdef},
		{"heterogeneous maxweight", "62a10a0fab34cbfbcfbdbf30537a459a3bcf132a6224c6082c731700cbadab04", shared(SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 600, KneeSlot: 150, Seed: 3},
			Specs:          HeterogeneousSpecs(4),
			Allocator:      alloc.NewMaxWeight(),
		})},
		{"link zeros", "2dc4fbdeca62a805ffc9be2e6ca8391f73b9263d0b6be7727118eb6d38f315c2", shared(SharedUplinkParams{
			ScenarioParams: ScenarioParams{Samples: 40_000, Slots: 400, KneeSlot: 100, Seed: 3},
			Devices:        2,
			Link:           &netem.LinkConfig{},
		})},
		{"markov process", "b37e939bb9f3354f115a6b8ff4a42e24a28d8e8b3152cb4edc11f6c000c7f12d", shared(SharedUplinkParams{
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
