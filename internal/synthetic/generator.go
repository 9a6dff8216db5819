package synthetic

import (
	"errors"
	"fmt"
	"math"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

// Character is a named body preset emulating one of the 8i Voxelized Full
// Bodies subjects.
type Character struct {
	Name     string
	Height   float64 // meters
	Build    float64 // width multiplier (~1.0)
	Wardrobe Wardrobe
}

// Presets returns the four characters mirroring the 8i dataset's subjects
// (longdress, loot, redandblack, soldier) in stature and palette.
func Presets() []Character {
	return []Character{
		{
			Name: "longdress", Height: 1.70, Build: 1.05,
			Wardrobe: Wardrobe{
				Skin:   pointcloud.Color{R: 224, G: 182, B: 150},
				Shirt:  pointcloud.Color{R: 170, G: 60, B: 90},
				Pants:  pointcloud.Color{R: 160, G: 55, B: 85}, // dress continues down
				Shoes:  pointcloud.Color{R: 40, G: 30, B: 30},
				Hair:   pointcloud.Color{R: 60, G: 40, B: 25},
				Stripe: true, StripeCol: pointcloud.Color{R: 205, G: 170, B: 120}, StripeFreq: 9,
			},
		},
		{
			Name: "loot", Height: 1.75, Build: 0.95,
			Wardrobe: Wardrobe{
				Skin:  pointcloud.Color{R: 150, G: 110, B: 85},
				Shirt: pointcloud.Color{R: 220, G: 210, B: 200},
				Pants: pointcloud.Color{R: 70, G: 70, B: 80},
				Shoes: pointcloud.Color{R: 35, G: 30, B: 30},
				Hair:  pointcloud.Color{R: 25, G: 20, B: 18},
			},
		},
		{
			Name: "redandblack", Height: 1.65, Build: 0.95,
			Wardrobe: Wardrobe{
				Skin:  pointcloud.Color{R: 230, G: 190, B: 160},
				Shirt: pointcloud.Color{R: 190, G: 30, B: 35},
				Pants: pointcloud.Color{R: 25, G: 25, B: 28},
				Shoes: pointcloud.Color{R: 25, G: 25, B: 28},
				Hair:  pointcloud.Color{R: 35, G: 25, B: 20},
			},
		},
		{
			Name: "soldier", Height: 1.82, Build: 1.10,
			Wardrobe: Wardrobe{
				Skin:  pointcloud.Color{R: 200, G: 160, B: 130},
				Shirt: pointcloud.Color{R: 90, G: 100, B: 70},
				Pants: pointcloud.Color{R: 80, G: 90, B: 65},
				Shoes: pointcloud.Color{R: 45, G: 40, B: 35},
				Hair:  pointcloud.Color{R: 50, G: 40, B: 30},
			},
		},
	}
}

// ErrUnknownCharacter is returned by ByName for names outside the presets.
var ErrUnknownCharacter = errors.New("synthetic: unknown character")

// ByName returns the preset with the given name.
func ByName(name string) (Character, error) {
	for _, c := range Presets() {
		if c.Name == name {
			return c, nil
		}
	}
	return Character{}, fmt.Errorf("%w: %q", ErrUnknownCharacter, name)
}

// Config controls generation of one frame.
type Config struct {
	Character Character
	// SamplesTarget is the number of raw surface samples before
	// voxelization (default 400_000). More samples saturate the capture
	// grid like the real scans do (~10^6 occupied voxels at depth 10 for
	// 8i; we default lower to keep tests fast but scale linearly).
	SamplesTarget int
	// CaptureDepth is the voxelization depth of the emulated capture rig;
	// the 8i captures are 1024^3 (depth 10). Default 10.
	CaptureDepth int
	// SurfaceNoise is Gaussian positional noise (meters) applied to
	// samples, emulating capture noise. Default 0.002.
	SurfaceNoise float64
	// Seed makes frames reproducible. Frame index is mixed in by Sequence.
	Seed uint64
	// SkipVoxelize keeps the raw surface samples (used by tests that
	// inspect the continuous geometry).
	SkipVoxelize bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Character.Name == "" {
		out.Character = Presets()[0]
	}
	if out.SamplesTarget <= 0 {
		out.SamplesTarget = 400_000
	}
	if out.CaptureDepth <= 0 {
		out.CaptureDepth = 10
	}
	if out.SurfaceNoise == 0 {
		out.SurfaceNoise = 0.002
	}
	return out
}

// Generate produces one voxelized full-body frame in the given pose.
func Generate(cfg Config, pose Pose) (*pointcloud.Cloud, error) {
	c := cfg.withDefaults()
	if c.CaptureDepth < 1 || c.CaptureDepth > 21 {
		return nil, fmt.Errorf("synthetic: capture depth %d out of range", c.CaptureDepth)
	}
	rng := geom.NewRNG(c.Seed ^ 0xa5a5a5a5)
	parts := buildBody(c.Character.Height, c.Character.Build, pose)

	total := 0.0
	for _, p := range parts {
		total += p.surf.area()
	}
	cloud := &pointcloud.Cloud{
		Points: make([]geom.Vec3, 0, c.SamplesTarget),
		Colors: make([]pointcloud.Color, 0, c.SamplesTarget),
	}
	for _, part := range parts {
		share := int(math.Round(float64(c.SamplesTarget) * part.surf.area() / total))
		for i := 0; i < share; i++ {
			p, _ := part.surf.sample(rng)
			if c.SurfaceNoise > 0 {
				p = p.Add(geom.V(
					rng.NormMeanStd(0, c.SurfaceNoise),
					rng.NormMeanStd(0, c.SurfaceNoise),
					rng.NormMeanStd(0, c.SurfaceNoise),
				))
			}
			col := c.Character.Wardrobe.colorFor(part.region, p, c.Character.Height, rng)
			cloud.Points = append(cloud.Points, p)
			cloud.Colors = append(cloud.Colors, col)
		}
	}
	if pose.Yaw != 0 {
		cloud.RotateY(pose.Yaw)
	}
	if c.SkipVoxelize {
		return cloud, nil
	}
	// Voxelize at the capture resolution: voxel edge = cubified bound
	// edge / 2^depth, like a real capture rig's lattice.
	box := cloud.Bounds().Cubified()
	voxel := box.LongestAxisLength() / float64(int64(1)<<uint(c.CaptureDepth))
	vox, err := cloud.VoxelDownsample(voxel)
	if err != nil {
		return nil, fmt.Errorf("synthetic: voxelize: %w", err)
	}
	return vox, nil
}

// Sequence generates an animated multi-frame capture like an 8i sequence.
type Sequence struct {
	cfg    Config
	frames int
}

// NewSequence returns a generator for an n-frame walking sequence.
func NewSequence(cfg Config, frames int) (*Sequence, error) {
	if frames <= 0 {
		return nil, errors.New("synthetic: sequence needs at least one frame")
	}
	return &Sequence{cfg: cfg, frames: frames}, nil
}

// Frame generates frame i (wrapping), posed along the walking loop, with a
// per-frame seed derived from the base seed.
func (s *Sequence) Frame(i int) (*pointcloud.Cloud, error) {
	cfg := s.cfg
	cfg.Seed = s.cfg.Seed + uint64(i%s.frames)*0x9e3779b9
	return Generate(cfg, WalkPose(i, s.frames))
}
