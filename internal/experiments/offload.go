package experiments

import (
	"errors"
	"fmt"

	"qarv/internal/delay"
	"qarv/internal/netem"
	"qarv/internal/quality"
	"qarv/internal/stats"
	"qarv/internal/synthetic"
)

// Edge offload (extension): the paper's on-device delay model, moved onto
// the network. Instead of rendering locally, the device ships the octree
// stream of each frame (geometry + colors, bytes(d)) over a finite uplink
// to an edge renderer. The controller's workload a(d) becomes the encoded
// stream size and the "service rate" the uplink bandwidth — the same
// drift-plus-penalty machinery stabilizes the transmit queue.

// validateUplink holds the checks SharedUplink makes before any
// capture: the resolved scenario parameters, the character
// preset, the link's shape, and the dynamics process.
func validateUplink(p ScenarioParams, link *netem.LinkConfig, dynamics delay.ServiceProcess) error {
	if err := p.validate(); err != nil {
		return err
	}
	if _, err := synthetic.ByName(p.Character); err != nil {
		return err
	}
	if link != nil {
		// Shape parameters can be checked before the bandwidth is known:
		// stand in a positive bandwidth so netem validates the rest.
		lc := *link
		if lc.BytesPerSlot <= 0 {
			lc.BytesPerSlot = 1
		}
		if _, err := netem.NewLink(lc); err != nil {
			return err
		}
	}
	if v, ok := dynamics.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// ErrNoDeliveries is returned when every frame was lost (degenerate link).
var ErrNoDeliveries = errors.New("experiments: no frames delivered")

// defaultLink is the uplink shape of a run whose Link is nil.
var defaultLink = netem.LinkConfig{LatencySlots: 2, JitterSlots: 0.3, LossProb: 0.01}

// resolveLink returns the uplink a run uses: link verbatim when set,
// otherwise the default shape, with the seed falling back to seed. A
// non-positive BytesPerSlot leaves the bandwidth to the run's own
// sizing.
func resolveLink(link *netem.LinkConfig, seed uint64) netem.LinkConfig {
	lc := defaultLink
	if link != nil {
		lc = *link
	}
	if lc.Seed == 0 {
		lc.Seed = seed
	}
	return lc
}

// NewByteScenario calibrates the scenario params describes in the bytes
// domain: cost a(d) is the measured stream size of depth d, and the
// service rate is the uplink bandwidth ServiceFraction sizes — the
// calibration a one-device SharedUplink runs at when its Link leaves the
// bandwidth unset.
func NewByteScenario(params ScenarioParams) (*Scenario, error) {
	p := params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	scn, _, err := byteScenario(p, 0)
	return scn, err
}

// byteScenario captures the frame p describes and calibrates it in the
// bytes domain the uplink runs work in: cost a(d) is the stream size of
// depth d (geometry and colors), utility the log-point utility over the
// octree occupancy. bandwidth, when positive, is the service rate V is
// calibrated at; otherwise ServiceFraction sizes it. The stream-size
// ladder is returned alongside, since the Scenario's Profile holds
// occupancy.
func byteScenario(p ScenarioParams, bandwidth float64) (*Scenario, []int, error) {
	_, tree, err := Capture(p)
	if err != nil {
		return nil, nil, err
	}
	bytesProfile, err := tree.StreamSizeProfile(true)
	if err != nil {
		return nil, nil, fmt.Errorf("stream sizes: %w", err)
	}
	// Quality still comes from rendered points; cost is bytes.
	profile := tree.Profile()
	util, err := quality.NewLogPointUtility(profile)
	if err != nil {
		return nil, nil, err
	}
	cost, err := delay.NewPointCostModel(bytesProfile, 1, 0, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("bytes cost model: %w", err)
	}
	if bandwidth <= 0 {
		bandwidth = p.serviceRate(cost)
	}
	scn, err := calibrate(p, profile, util, cost, bandwidth)
	if err != nil {
		return nil, nil, err
	}
	return scn, bytesProfile, nil
}

// latencySummary returns the mean and 95th percentile of the delivered
// frames' latencies, or ErrNoDeliveries when none was delivered.
func latencySummary(latencies []float64) (mean, p95 float64, err error) {
	if len(latencies) == 0 {
		return 0, 0, ErrNoDeliveries
	}
	var lat stats.Running
	for _, l := range latencies {
		lat.Add(l)
	}
	p95, err = stats.Percentile(latencies, 95)
	if err != nil {
		return 0, 0, err
	}
	return lat.Mean(), p95, nil
}
