// Package render is a small software point-splat renderer: it projects a
// point cloud through a pinhole camera into a z-buffered framebuffer.
// It closes the loop the paper's Fig. 1 gestures at — "AR visualization
// resolution depending on Octree depth" — by measuring quality where it
// is actually perceived: in the rendered image. The image-domain PSNR
// between a depth-d LOD render and the full-resolution render feeds
// quality.NewPSNRUtility (see content.QualityView), giving the
// controller a perceptual pa(d).
package render

import (
	"errors"
	"fmt"
	"math"

	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
)

// Camera is a pinhole camera at Eye looking at Target with the given
// vertical field of view.
type Camera struct {
	Eye    geom.Vec3
	Target geom.Vec3
	Up     geom.Vec3
	FOVDeg float64 // vertical field of view in degrees
	Near   float64 // near-plane distance; points closer are culled
}

// DefaultCamera frames a human-height subject from 3 m away.
func DefaultCamera(subject geom.AABB) Camera {
	c := subject.Center()
	return Camera{
		Eye:    c.Add(geom.V(0, 0.1, 3)),
		Target: c,
		Up:     geom.V(0, 1, 0),
		FOVDeg: 45,
		Near:   0.05,
	}
}

// Image is a rendered RGB framebuffer with its depth buffer.
type Image struct {
	W, H  int
	Pix   []pointcloud.Color // row-major, length W*H
	Depth []float64          // camera-space depth per pixel; +Inf = empty
}

// Config controls a render pass.
type Config struct {
	Width, Height int
	Camera        Camera
	// SplatRadius is the screen-space splat half-size in pixels scaled by
	// inverse depth; 0 picks a radius that closes holes at the cloud's
	// mean spacing (heuristic).
	SplatRadius float64
	// Background fills uncovered pixels.
	Background pointcloud.Color
}

// Render errors.
var (
	ErrBadViewport = errors.New("render: viewport must be positive")
	ErrEmptyCloud  = errors.New("render: empty cloud")
	ErrBadCamera   = errors.New("render: camera eye and target coincide")
)

// Render splats the cloud into a fresh framebuffer. Points without colors
// render white.
func Render(cloud *pointcloud.Cloud, cfg Config) (*Image, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadViewport, cfg.Width, cfg.Height)
	}
	if cloud.Len() == 0 {
		return nil, ErrEmptyCloud
	}
	cam := cfg.Camera
	forward := cam.Target.Sub(cam.Eye)
	if forward.Norm() == 0 {
		return nil, ErrBadCamera
	}
	forward = forward.Normalized()
	up := cam.Up
	if up.Norm() == 0 {
		up = geom.V(0, 1, 0)
	}
	right := forward.Cross(up).Normalized()
	trueUp := right.Cross(forward)
	if cam.FOVDeg <= 0 {
		cam.FOVDeg = 45
	}
	if cam.Near <= 0 {
		cam.Near = 0.05
	}
	fovRad := cam.FOVDeg * math.Pi / 180
	focal := float64(cfg.Height) / (2 * math.Tan(fovRad/2))

	im := &Image{
		W:     cfg.Width,
		H:     cfg.Height,
		Pix:   make([]pointcloud.Color, cfg.Width*cfg.Height),
		Depth: make([]float64, cfg.Width*cfg.Height),
	}
	for i := range im.Depth {
		im.Depth[i] = math.Inf(1)
		im.Pix[i] = cfg.Background
	}

	radius := cfg.SplatRadius
	if radius <= 0 {
		// Hole-closing heuristic: splat radius from cloud density so a
		// surface at the camera distance fills its pixels.
		spacing := cloud.MeanNeighborDistance(512, nil)
		dist := cam.Eye.Dist(cam.Target)
		if dist <= 0 {
			dist = 1
		}
		radius = math.Max(0.75, spacing*focal/dist)
	}

	cx := float64(cfg.Width) / 2
	cy := float64(cfg.Height) / 2
	for i, p := range cloud.Points {
		rel := p.Sub(cam.Eye)
		z := rel.Dot(forward)
		if z < cam.Near {
			continue // behind or too close
		}
		sx := cx + rel.Dot(right)*focal/z
		sy := cy - rel.Dot(trueUp)*focal/z
		col := pointcloud.Color{R: 255, G: 255, B: 255}
		if cloud.HasColors() {
			col = cloud.Colors[i]
		}
		splat(im, sx, sy, z, radius, col)
	}
	return im, nil
}

// splat writes a square splat with z-test.
func splat(im *Image, sx, sy, z, radius float64, col pointcloud.Color) {
	x0 := int(math.Floor(sx - radius))
	x1 := int(math.Ceil(sx + radius))
	y0 := int(math.Floor(sy - radius))
	y1 := int(math.Ceil(sy + radius))
	if x1 < 0 || y1 < 0 || x0 >= im.W || y0 >= im.H {
		return
	}
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 >= im.W {
		x1 = im.W - 1
	}
	if y1 >= im.H {
		y1 = im.H - 1
	}
	for y := y0; y <= y1; y++ {
		row := y * im.W
		for x := x0; x <= x1; x++ {
			idx := row + x
			if z < im.Depth[idx] {
				im.Depth[idx] = z
				im.Pix[idx] = col
			}
		}
	}
}

// PSNR computes the luma peak signal-to-noise ratio between two images of
// identical dimensions; +Inf for identical images.
func PSNR(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("render: image sizes differ: %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var mse float64
	for i := range a.Pix {
		d := a.Pix[i].Gray() - b.Pix[i].Gray()
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// DepthLadderPSNR renders the octree's LOD at each depth and returns the
// image-domain PSNR against the full-resolution render — the measured
// per-depth quality profile for quality.NewPSNRUtility, i.e. pa(d) in the
// domain the user actually sees. The reference depth is the octree's max.
func DepthLadderPSNR(tree *octree.Octree, cfg Config, depths []int) ([]float64, error) {
	refLOD, err := tree.LOD(tree.MaxDepth(), octree.LODCentroid)
	if err != nil {
		return nil, err
	}
	ref, err := Render(refLOD, cfg)
	if err != nil {
		return nil, fmt.Errorf("render reference: %w", err)
	}
	out := make([]float64, 0, len(depths))
	for _, d := range depths {
		lod, err := tree.LOD(d, octree.LODCentroid)
		if err != nil {
			return nil, err
		}
		im, err := Render(lod, cfg)
		if err != nil {
			return nil, fmt.Errorf("render depth %d: %w", d, err)
		}
		psnr, err := PSNR(ref, im)
		if err != nil {
			return nil, err
		}
		out = append(out, psnr)
	}
	return out, nil
}
