package render

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
	"qarv/internal/synthetic"
)

func bodyCloud(t *testing.T) *pointcloud.Cloud {
	t.Helper()
	cloud, err := synthetic.Generate(synthetic.Config{
		SamplesTarget: 30_000, CaptureDepth: 9, Seed: 8,
	}, synthetic.Pose{})
	if err != nil {
		t.Fatal(err)
	}
	return cloud
}

func bodyConfig(cloud *pointcloud.Cloud) Config {
	return Config{
		Width:  160,
		Height: 160,
		Camera: DefaultCamera(cloud.Bounds()),
	}
}

func TestRenderValidation(t *testing.T) {
	cloud := bodyCloud(t)
	if _, err := Render(cloud, Config{Width: 0, Height: 10}); !errors.Is(err, ErrBadViewport) {
		t.Errorf("bad viewport: %v", err)
	}
	if _, err := Render(&pointcloud.Cloud{}, bodyConfig(cloud)); !errors.Is(err, ErrEmptyCloud) {
		t.Errorf("empty cloud: %v", err)
	}
	bad := bodyConfig(cloud)
	bad.Camera.Eye = bad.Camera.Target
	if _, err := Render(cloud, bad); !errors.Is(err, ErrBadCamera) {
		t.Errorf("degenerate camera: %v", err)
	}
}

// coverage returns the fraction of pixels hit by at least one splat.
func coverage(im *Image) float64 {
	hit := 0
	for _, d := range im.Depth {
		if !math.IsInf(d, 1) {
			hit++
		}
	}
	return float64(hit) / float64(len(im.Depth))
}

func TestRenderCoversSubject(t *testing.T) {
	cloud := bodyCloud(t)
	im, err := Render(cloud, bodyConfig(cloud))
	if err != nil {
		t.Fatal(err)
	}
	cov := coverage(im)
	// A framed human should cover a meaningful but partial image area.
	if cov < 0.05 || cov > 0.9 {
		t.Errorf("coverage = %v", cov)
	}
	// Center pixel column should hit the body (torso) with finite depth.
	if math.IsInf(im.Depth[(im.H/2)*im.W+im.W/2], 1) {
		t.Error("subject center not covered")
	}
}

func TestRenderZBufferOcclusion(t *testing.T) {
	// Two overlapping splats: the nearer one must win.
	c := &pointcloud.Cloud{}
	red := pointcloud.Color{R: 255}
	blue := pointcloud.Color{B: 255}
	c.Append(geom.V(0, 0, 1), &blue, nil) // farther (camera looks from +z)
	c.Append(geom.V(0, 0, 2), &red, nil)  // nearer to a camera at z=3
	im, err := Render(c, Config{
		Width: 32, Height: 32,
		Camera:      Camera{Eye: geom.V(0, 0, 3), Target: geom.V(0, 0, 0), Up: geom.V(0, 1, 0), FOVDeg: 45},
		SplatRadius: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	center := im.Pix[16*im.W+16]
	if center.R != 255 || center.B != 0 {
		t.Errorf("center pixel = %+v, want the nearer red splat", center)
	}
}

func TestRenderBehindCameraCulled(t *testing.T) {
	c := &pointcloud.Cloud{}
	c.Append(geom.V(0, 0, 10), nil, nil) // behind a camera at z=3 looking at -z... actually in front
	c.Append(geom.V(0, 0, 4), nil, nil)  // behind the eye
	im, err := Render(c, Config{
		Width: 16, Height: 16,
		Camera:      Camera{Eye: geom.V(0, 0, 3), Target: geom.V(0, 0, 0), Up: geom.V(0, 1, 0), FOVDeg: 45},
		SplatRadius: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both points are behind the view direction (camera looks toward -z);
	// nothing may be drawn.
	if coverage(im) != 0 {
		t.Errorf("behind-camera points drawn: coverage %v", coverage(im))
	}
}

func TestImagePSNR(t *testing.T) {
	cloud := bodyCloud(t)
	im, err := Render(cloud, bodyConfig(cloud))
	if err != nil {
		t.Fatal(err)
	}
	same, err := PSNR(im, im)
	if err != nil || !math.IsInf(same, 1) {
		t.Errorf("self PSNR = %v, %v", same, err)
	}
	other := &Image{W: 1, H: 1, Pix: make([]pointcloud.Color, 1), Depth: make([]float64, 1)}
	if _, err := PSNR(im, other); err == nil {
		t.Error("size mismatch must error")
	}
}

func TestDepthLadderPSNRMonotone(t *testing.T) {
	// The render-domain Fig. 1: deeper LOD renders closer to the
	// reference image.
	cloud := bodyCloud(t)
	tree, err := octree.Build(cloud, 9)
	if err != nil {
		t.Fatal(err)
	}
	psnrs, err := DepthLadderPSNR(tree, bodyConfig(cloud), []int{4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(psnrs); i++ {
		if psnrs[i] <= psnrs[i-1] {
			t.Errorf("view PSNR not increasing: %v", psnrs)
		}
	}
	// Shallow renders must be visibly degraded, deep ones decent.
	if psnrs[0] > 40 {
		t.Errorf("depth-4 render suspiciously good: %v dB", psnrs[0])
	}
	if psnrs[len(psnrs)-1] < 20 {
		t.Errorf("depth-8 render suspiciously bad: %v dB", psnrs[len(psnrs)-1])
	}
}

func TestRenderDeterministic(t *testing.T) {
	cloud := bodyCloud(t)
	a, err := Render(cloud, bodyConfig(cloud))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Render(cloud, bodyConfig(cloud))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("render nondeterministic")
		}
	}
}
