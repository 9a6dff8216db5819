package experiments

// Content-backed scenarios: the bridge from measured point-cloud
// profiles (internal/content) to the calibrated Scenario every layer
// above consumes. NewContentScenario shares NewScenario's calibration
// tail but swaps the analytic log-point utility and point-count cost for
// the profile's measured PSNR ladder and stream-byte ladder,
// recalibrating the service rate and V in the bytes domain. AxisContent and AxisViewDistance then
// sweep assets and camera distances as first-class grid dimensions: each
// point replaces the cell's scenario with a content-calibrated one, so
// both backends resolve measured cost/utility with no further plumbing.

import (
	"fmt"

	"qarv/internal/content"
)

// NewContentScenario calibrates a Scenario over a measured content
// profile: cost a(d) is the profile's stream-byte ladder, utility pa(d)
// its measured PSNR ladder, the service rate (bytes/slot) sits
// ServiceFraction of the way between the second-deepest and deepest
// candidates' frame bytes, and V is calibrated so the knee lands at
// KneeSlot. params supplies the control-side knobs (Depths, KneeSlot,
// ServiceFraction, Slots); its content-side fields (Character, Samples,
// CaptureDepth, Seed) are taken from the profile, which was built
// independently. Zero-value params fields take the scenario defaults,
// with Depths defaulting to the profile's measured depths.
func NewContentScenario(params ScenarioParams, prof *content.Profile) (*Scenario, error) {
	if prof == nil {
		return nil, fmt.Errorf("experiments: content scenario needs a profile")
	}
	p := params
	p.Character = prof.Name()
	p.CaptureDepth = prof.CaptureDepth()
	p.Seed = prof.Config().Seed
	if len(p.Depths) == 0 {
		p.Depths = prof.Depths()
	}
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	cost, err := prof.CostModel()
	if err != nil {
		return nil, err
	}
	util, err := prof.UtilityModel()
	if err != nil {
		return nil, err
	}
	return calibrate(p, prof.Points(), util, cost, p.serviceRate(cost))
}

// applyContent recalibrates the cell's scenario over the profile,
// keeping the sweep's control-side parameters (Depths, KneeSlot,
// ServiceFraction, Slots) so cells stay comparable across assets.
func applyContent(c *SweepCell, prof *content.Profile) error {
	base := c.Scenario.Params
	base.Depths = nil // measured depths differ per profile
	scn, err := NewContentScenario(base, prof)
	if err != nil {
		return err
	}
	c.Scenario = scn
	return nil
}

// AxisContent sweeps the content asset: each point replaces the cell's
// scenario with one calibrated over that profile's measured byte and
// PSNR ladders (see NewContentScenario). Build the profiles up front
// with content.Load so the expensive asset pipeline runs once per asset.
func AxisContent(profiles ...*content.Profile) SweepAxis {
	pts := make([]AxisPoint, len(profiles))
	for i, prof := range profiles {
		prof := prof
		label := fmt.Sprintf("profile-%d", i)
		if prof != nil {
			label = prof.Name()
		}
		pts[i] = AxisPoint{
			Label: label,
			Apply: func(c *SweepCell) error {
				return applyContent(c, prof)
			},
		}
	}
	return SweepAxis{Name: "content", Points: pts}
}

// AxisViewDistance sweeps viewing distance: each point rebuilds the base
// asset's profile with view-PSNR quality measured through a camera at
// that distance (meters), then recalibrates the cell's scenario over it —
// the viewpoint/distance-dependent quality axis. Profiles are resolved
// through the content cache, so each distance builds once per process.
func AxisViewDistance(base content.Config, distances ...float64) SweepAxis {
	pts := make([]AxisPoint, len(distances))
	for i, dist := range distances {
		dist := dist
		pts[i] = AxisPoint{
			Label:   fmt.Sprintf("%gm", dist),
			Value:   dist,
			Numeric: true,
			Apply: func(c *SweepCell) error {
				if dist <= 0 {
					return fmt.Errorf("experiments: view distance must be positive, got %g", dist)
				}
				cfg := base
				cfg.Quality = content.QualityView
				cfg.View.Distance = dist
				prof, err := content.Load(cfg)
				if err != nil {
					return err
				}
				return applyContent(c, prof)
			},
		}
	}
	return SweepAxis{Name: "viewdist", Points: pts}
}
