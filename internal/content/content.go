// Package content turns a point-cloud asset into a controller-consumable
// workload profile: synthetic body (or PLY file) → octree build →
// measured per-depth stream bytes (StreamSizeProfile) and measured
// per-depth quality (geometry PSNR against one shared quality.Reference, or
// rendered-view PSNR via render.DepthLadderPSNR). The resulting Profile
// exposes the two tables the Lyapunov controller needs — a bytes-domain
// cost model a(d) and a PSNR-backed utility model pa(d) — so sessions,
// fleets, and sweeps trade off measured quality-vs-bytes curves instead
// of analytic ones.
//
// Builds are deterministic: the same Config (asset, seed, sizes, view)
// always yields the same Profile, bit for bit. Load memoizes Build in an
// in-process cache keyed by the resolved Config, so the expensive
// generate/octree/measure pipeline runs once per distinct configuration
// even when many sweep cells or fleet profiles share an asset.
package content

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"qarv/internal/delay"
	"qarv/internal/geom"
	"qarv/internal/obs"
	"qarv/internal/octree"
	"qarv/internal/ply"
	"qarv/internal/pointcloud"
	"qarv/internal/quality"
	"qarv/internal/render"
	"qarv/internal/synthetic"
)

// Quality selects how the utility ladder is measured.
type Quality int

const (
	// QualityGeometry measures D1 geometry PSNR of each LOD against the
	// full-resolution capture (quality.CompareGeometry) — viewpoint
	// independent. Default.
	QualityGeometry Quality = iota
	// QualityView measures rendered-image PSNR of each LOD through the
	// configured camera (render.DepthLadderPSNR) — viewpoint and
	// distance dependent, the QoE-style metric.
	QualityView
)

// String names the quality mode for labels and cache keys.
func (q Quality) String() string {
	if q == QualityView {
		return "view"
	}
	return "geometry"
}

// View configures the camera for QualityView measurement.
type View struct {
	// Width, Height set the render viewport (default 320×320).
	Width, Height int
	// Distance is the camera's distance from the subject center in
	// meters, along the default framing direction. Zero takes the
	// default ~3 m human-subject framing (render.DefaultCamera).
	Distance float64
}

// Config selects and parameterizes an asset build. The zero value builds
// the default synthetic subject with geometry-PSNR quality.
type Config struct {
	// Asset is a synthetic character preset name (longdress, loot,
	// redandblack, soldier; default longdress) or a path to a PLY file
	// (recognized by the .ply suffix).
	Asset string
	// Samples is the synthetic surface-sample budget before voxelization
	// (default 120_000). Ignored for PLY assets.
	Samples int
	// CaptureDepth is the capture/octree depth (default 10 = 1024³).
	CaptureDepth int
	// Depths are the ladder depths actually measured (default the top
	// six: CaptureDepth−5 .. CaptureDepth); the full per-depth ladder is
	// filled by nearest measured depth.
	Depths []int
	// Seed fixes the synthetic frame (default 1). Ignored for PLY assets.
	Seed uint64
	// Quality selects the utility metric (default QualityGeometry).
	Quality Quality
	// View parameterizes the camera when Quality is QualityView.
	View View
	// PSNRCap caps infinite/near-lossless PSNR in dB (default 100).
	PSNRCap float64
	// Recorder receives pipeline-stage records from Build (asset load,
	// octree build, size and PSNR ladders) and cache-hit events from
	// Load. Stage records are slot-free (Slot 0, ordered by sequence);
	// the recorder never affects the built profile and deliberately does
	// not participate in the Load cache key.
	Recorder *obs.FlightRecorder
}

// Content errors; matchable with errors.Is.
var (
	// ErrDepthBeyondCapture reports a measured depth above CaptureDepth.
	ErrDepthBeyondCapture = errors.New("content: measured depth exceeds capture depth")
	// ErrBadDepth reports a non-positive measured depth.
	ErrBadDepth = errors.New("content: measured depths must be positive")
)

// DefaultDepths returns the default measured ladder for a capture depth:
// the top six depths (clamped to start at 1), mirroring the paper's
// Fig. 2 candidate set R = {5..10} at capture depth 10.
func DefaultDepths(captureDepth int) []int {
	lo := captureDepth - 5
	if lo < 1 {
		lo = 1
	}
	out := make([]int, 0, captureDepth-lo+1)
	for d := lo; d <= captureDepth; d++ {
		out = append(out, d)
	}
	return out
}

func (c Config) withDefaults() Config {
	if c.Asset == "" {
		c.Asset = "longdress"
	}
	if c.Samples <= 0 {
		c.Samples = 120_000
	}
	if c.CaptureDepth <= 0 {
		c.CaptureDepth = 10
	}
	if len(c.Depths) == 0 {
		c.Depths = DefaultDepths(c.CaptureDepth)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.View.Width <= 0 {
		c.View.Width = 320
	}
	if c.View.Height <= 0 {
		c.View.Height = 320
	}
	if c.PSNRCap <= 0 {
		c.PSNRCap = 100
	}
	return c
}

// isPLY reports whether the asset names a PLY file rather than a
// synthetic preset.
func isPLY(asset string) bool {
	return strings.EqualFold(filepath.Ext(asset), ".ply")
}

// LadderRow is one measured point of the quality/bytes ladder.
type LadderRow struct {
	// Depth is the octree depth.
	Depth int `json:"depth"`
	// Points is the occupied-voxel count (rendered points) at Depth.
	Points int `json:"points"`
	// Bytes is the measured serialized stream size at Depth.
	Bytes int `json:"bytes"`
	// PSNR is the measured quality in dB (capped; see Config.PSNRCap).
	PSNR float64 `json:"psnr"`
}

// Profile is an immutable measured workload profile: per-depth occupancy,
// stream bytes, and PSNR ladders over one asset. Profiles returned by
// Load are shared across callers; all accessors copy.
type Profile struct {
	name   string
	cfg    Config
	points []int     // occupancy per depth 0..CaptureDepth
	bytes  []int     // stream bytes per depth 0..CaptureDepth (strictly increasing)
	psnr   []float64 // utility ladder (dB) per depth 0..CaptureDepth (non-decreasing)
	ladder []LadderRow
}

// Name labels the profile (the preset name or the PLY base name).
func (p *Profile) Name() string { return p.name }

// Config returns the resolved build configuration.
func (p *Profile) Config() Config {
	c := p.cfg
	c.Depths = append([]int(nil), c.Depths...)
	return c
}

// CaptureDepth returns the profile's capture (deepest) depth.
func (p *Profile) CaptureDepth() int { return p.cfg.CaptureDepth }

// Depths returns the measured ladder depths in increasing order.
func (p *Profile) Depths() []int { return append([]int(nil), p.cfg.Depths...) }

// Points returns the occupancy ladder: rendered points per depth
// 0..CaptureDepth.
func (p *Profile) Points() []int { return append([]int(nil), p.points...) }

// Bytes returns the measured stream-size ladder: serialized bytes per
// depth 0..CaptureDepth, strictly increasing.
func (p *Profile) Bytes() []int { return append([]int(nil), p.bytes...) }

// PSNR returns the measured utility ladder: quality in dB per depth
// 0..CaptureDepth, monotone non-decreasing (strictly increasing over the
// measured depths).
func (p *Profile) PSNR() []float64 { return append([]float64(nil), p.psnr...) }

// Ladder returns the measured rows (one per configured depth), for
// display and reports.
func (p *Profile) Ladder() []LadderRow { return append([]LadderRow(nil), p.ladder...) }

// CostModel builds the bytes-domain workload model a(d): choosing depth d
// enqueues the measured stream bytes of depth d.
func (p *Profile) CostModel() (*delay.PointCostModel, error) {
	m, err := delay.NewPointCostModel(p.bytes, 1, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("content: cost model: %w", err)
	}
	return m, nil
}

// UtilityModel builds the measured-PSNR utility model pa(d).
func (p *Profile) UtilityModel() (*quality.PSNRUtility, error) {
	// The ladder is already capped and non-negative; pass its own peak as
	// the cap so the strictifying epsilon bumps near the cap survive.
	m, err := quality.NewPSNRUtility(p.psnr, p.psnr[len(p.psnr)-1])
	if err != nil {
		return nil, fmt.Errorf("content: utility model: %w", err)
	}
	return m, nil
}

// Build measures a fresh profile from the configured asset. Prefer Load,
// which memoizes; Build always runs the full pipeline.
func Build(cfg Config) (*Profile, error) {
	c := cfg.withDefaults()
	depths := append([]int(nil), c.Depths...)
	sort.Ints(depths)
	uniq := depths[:0]
	for i, d := range depths {
		if i == 0 || d != depths[i-1] {
			uniq = append(uniq, d)
		}
	}
	c.Depths = uniq
	for _, d := range c.Depths {
		if d < 1 {
			return nil, fmt.Errorf("%w: %d", ErrBadDepth, d)
		}
		if d > c.CaptureDepth {
			return nil, fmt.Errorf("%w: %d > %d", ErrDepthBeyondCapture, d, c.CaptureDepth)
		}
	}
	name, cloud, err := loadAsset(c)
	if err != nil {
		return nil, err
	}
	c.Recorder.Event(0, "content", "asset", -1, float64(cloud.Len()))
	tree, err := octree.Build(cloud, c.CaptureDepth)
	if err != nil {
		return nil, fmt.Errorf("content: build octree: %w", err)
	}
	points := tree.Profile()
	c.Recorder.Event(0, "content", "octree", -1, float64(points[c.CaptureDepth]))
	sizes, err := tree.StreamSizeProfile(cloud.HasColors())
	if err != nil {
		return nil, fmt.Errorf("content: stream sizes: %w", err)
	}
	c.Recorder.Event(0, "content", "sizes", -1, float64(sizes[c.CaptureDepth]))
	// The cost ladder must be strictly increasing for the controller;
	// physical streams are, but guard against attribute-coding anomalies
	// where a deeper level's color section shrinks more than its geometry
	// grows.
	for d := 1; d < len(sizes); d++ {
		if sizes[d] <= sizes[d-1] {
			sizes[d] = sizes[d-1] + 1
		}
	}
	measured, err := measurePSNR(c, cloud, tree)
	if err != nil {
		return nil, err
	}
	ladder := make([]LadderRow, len(c.Depths))
	for i, d := range c.Depths {
		ladder[i] = LadderRow{Depth: d, Points: points[d], Bytes: sizes[d], PSNR: measured[i]}
		c.Recorder.Event(0, "content", "ladder", int64(d), measured[i])
	}
	return &Profile{
		name:   name,
		cfg:    c,
		points: points,
		bytes:  sizes,
		psnr:   fillLadder(c.Depths, measured, c.CaptureDepth),
		ladder: ladder,
	}, nil
}

// loadAsset resolves the configured asset into a named point cloud.
func loadAsset(c Config) (string, *pointcloud.Cloud, error) {
	if isPLY(c.Asset) {
		f, err := os.Open(c.Asset)
		if err != nil {
			return "", nil, fmt.Errorf("content: open asset: %w", err)
		}
		defer f.Close()
		cloud, err := ply.ReadCloud(f)
		if err != nil {
			return "", nil, fmt.Errorf("content: read %s: %w", c.Asset, err)
		}
		base := filepath.Base(c.Asset)
		return strings.TrimSuffix(base, filepath.Ext(base)), cloud, nil
	}
	ch, err := synthetic.ByName(c.Asset)
	if err != nil {
		return "", nil, fmt.Errorf("content: %w", err)
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character:     ch,
		SamplesTarget: c.Samples,
		CaptureDepth:  c.CaptureDepth,
		Seed:          c.Seed,
	}, synthetic.Pose{})
	if err != nil {
		return "", nil, fmt.Errorf("content: generate frame: %w", err)
	}
	return ch.Name, cloud, nil
}

// measurePSNR measures the quality ladder at the configured depths,
// caps it, and makes it strictly increasing (the controller requires a
// strict utility/depth tradeoff; ties get an epsilon bump).
func measurePSNR(c Config, cloud *pointcloud.Cloud, tree *octree.Octree) ([]float64, error) {
	vals := make([]float64, len(c.Depths))
	switch c.Quality {
	case QualityView:
		rcfg := render.Config{
			Width:  c.View.Width,
			Height: c.View.Height,
			Camera: cameraAt(cloud.Bounds(), c.View.Distance),
		}
		ladder, err := render.DepthLadderPSNR(tree, rcfg, c.Depths)
		if err != nil {
			return nil, fmt.Errorf("content: render ladder: %w", err)
		}
		copy(vals, ladder)
	default:
		ref := quality.NewReference(cloud)
		for i, d := range c.Depths {
			lod, err := tree.LOD(d, octree.LODCentroid)
			if err != nil {
				return nil, fmt.Errorf("content: LOD depth %d: %w", d, err)
			}
			rep, err := ref.Geometry(lod)
			if err != nil {
				return nil, fmt.Errorf("content: geometry PSNR depth %d: %w", d, err)
			}
			vals[i] = rep.PSNR
		}
	}
	// Cap, floor at zero, then strictify: running max plus an epsilon per
	// flat step keeps the ladder monotone non-decreasing in substance and
	// strictly increasing for the controller's validation.
	const eps = 1e-6
	prev := math.Inf(-1)
	for i, v := range vals {
		if math.IsInf(v, 1) || v > c.PSNRCap {
			v = c.PSNRCap
		}
		if v < 0 {
			v = 0
		}
		if v <= prev {
			v = prev + eps
		}
		vals[i] = v
		prev = v
	}
	return vals, nil
}

// cameraAt frames the subject from the given distance along the default
// framing direction; distance 0 takes render.DefaultCamera.
func cameraAt(subject geom.AABB, distance float64) render.Camera {
	cam := render.DefaultCamera(subject)
	if distance > 0 {
		dir := geom.V(0, 0.1, 3)
		cam.Eye = subject.Center().Add(dir.Scale(distance / dir.Norm()))
	}
	return cam
}

// fillLadder expands measured per-depth values onto the full ladder
// 0..captureDepth by nearest measured depth (ties toward the shallower
// depth), preserving monotonicity.
func fillLadder(depths []int, vals []float64, captureDepth int) []float64 {
	full := make([]float64, captureDepth+1)
	for d := 0; d <= captureDepth; d++ {
		full[d] = vals[nearestDepth(depths, d)]
	}
	return full
}

// nearestDepth returns the index of the measured depth closest to d.
func nearestDepth(depths []int, d int) int {
	best, bestDist := 0, math.MaxInt
	for i, dd := range depths {
		dist := dd - d
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
