package synthetic

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
)

func testConfig() Config {
	return Config{SamplesTarget: 30_000, CaptureDepth: 9, Seed: 1}
}

func TestGenerateBasicShape(t *testing.T) {
	cloud, err := Generate(testConfig(), Pose{})
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Len() < 5000 {
		t.Fatalf("only %d voxels generated", cloud.Len())
	}
	if !cloud.HasColors() {
		t.Fatal("generated cloud has no colors")
	}
	if err := cloud.Validate(); err != nil {
		t.Fatal(err)
	}
	b := cloud.Bounds()
	// A ~1.7 m human: the Y extent must be human-sized and the larger of
	// the horizontal extents well below the height.
	ySize := b.Size().Y
	if ySize < 1.3 || ySize > 2.1 {
		t.Errorf("body height = %v m", ySize)
	}
	if b.Size().X > ySize || b.Size().Z > ySize {
		t.Errorf("body wider than tall: %v", b.Size())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig(), Pose{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig(), Pose{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic sizes: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.Colors[i] != b.Colors[i] {
			t.Fatal("same seed produced different clouds")
		}
	}
	cfg := testConfig()
	cfg.Seed = 2
	c, err := Generate(cfg, Pose{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == a.Len() && c.Points[0] == a.Points[0] {
		t.Error("different seeds produced identical clouds")
	}
}

func TestOccupancyGrowthLaw(t *testing.T) {
	// The controller's workload curve a(d) must grow like a surface
	// (~4x per depth) before saturating — the property that makes the
	// synthetic body a faithful stand-in for the 8i captures.
	cloud, err := Generate(Config{SamplesTarget: 60_000, CaptureDepth: 10, Seed: 3}, Pose{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := octree.Build(cloud, 10)
	if err != nil {
		t.Fatal(err)
	}
	prof := o.Profile()
	// Mid depths (4..7) should multiply occupancy by ~3-4.5x per level.
	for d := 4; d <= 6; d++ {
		ratio := float64(prof[d+1]) / float64(prof[d])
		if ratio < 2.0 || ratio > 6.0 {
			t.Errorf("occupancy ratio depth %d->%d = %.2f, want surface-like (2..6): profile=%v",
				d, d+1, ratio, prof)
		}
	}
	// Saturation: the last level grows much slower than 4x once the
	// capture lattice resolution is reached.
	last := float64(prof[10]) / float64(prof[9])
	if last > 3.5 {
		t.Errorf("no saturation at capture depth: ratio %.2f", last)
	}
}

func TestVoxelizationDedupes(t *testing.T) {
	cfg := testConfig()
	raw, err := Generate(Config{SamplesTarget: cfg.SamplesTarget, CaptureDepth: cfg.CaptureDepth, Seed: cfg.Seed, SkipVoxelize: true}, Pose{})
	if err != nil {
		t.Fatal(err)
	}
	vox, err := Generate(cfg, Pose{})
	if err != nil {
		t.Fatal(err)
	}
	if vox.Len() >= raw.Len() {
		t.Errorf("voxelization did not reduce: %d -> %d", raw.Len(), vox.Len())
	}
}

func TestPresetsDistinct(t *testing.T) {
	ps := Presets()
	if len(ps) != 4 {
		t.Fatalf("want 4 presets, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if names[p.Name] {
			t.Fatalf("duplicate preset %q", p.Name)
		}
		names[p.Name] = true
		if p.Height < 1.5 || p.Height > 2.0 {
			t.Errorf("%s height %v implausible", p.Name, p.Height)
		}
	}
	for _, want := range []string{"longdress", "loot", "redandblack", "soldier"} {
		if !names[want] {
			t.Errorf("missing preset %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("soldier")
	if err != nil || c.Name != "soldier" {
		t.Errorf("ByName soldier: %v, %v", c, err)
	}
	if _, err := ByName("gopher"); !errors.Is(err, ErrUnknownCharacter) {
		t.Errorf("unknown name: %v", err)
	}
}

func TestSequenceFramesVary(t *testing.T) {
	seq, err := NewSequence(testConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	f0, err := seq.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := seq.Frame(4)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-cycle pose differs: centroids should shift.
	if centroid(f0).Dist(centroid(f4)) < 1e-4 {
		t.Error("animation frames are identical")
	}
	// Same frame twice must be identical (per-frame determinism).
	f0b, err := seq.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	if f0.Len() != f0b.Len() {
		t.Error("frame regeneration nondeterministic")
	}
	if _, err := NewSequence(testConfig(), 0); err == nil {
		t.Error("zero-frame sequence must error")
	}
}

func centroid(c *pointcloud.Cloud) geom.Vec3 {
	var sum geom.Vec3
	for _, p := range c.Points {
		sum = sum.Add(p)
	}
	return sum.Scale(1 / float64(c.Len()))
}

func TestWalkPoseCycle(t *testing.T) {
	p0 := WalkPose(0, 10)
	p10 := WalkPose(10, 10)
	if p0 != p10 {
		t.Error("walk cycle must wrap")
	}
	if WalkPose(3, 0).Phase != 0 {
		t.Error("n=0 must not panic and must pin phase 0")
	}
}

func TestGenerateBadDepth(t *testing.T) {
	cfg := testConfig()
	cfg.CaptureDepth = 25
	if _, err := Generate(cfg, Pose{}); err == nil {
		t.Error("capture depth beyond Morton limit must error")
	}
}

func TestWardrobeRegions(t *testing.T) {
	// Head samples must mostly be skin/hair tones, leg samples pants.
	cfg := testConfig()
	cfg.SkipVoxelize = true
	cloud, err := Generate(cfg, Pose{})
	if err != nil {
		t.Fatal(err)
	}
	ch := cfg.withDefaults().Character
	hipY := 0.52 * ch.Height
	var legPants, legTotal int
	for i, p := range cloud.Points {
		if p.Y < hipY*0.7 && p.Y > 0.15*ch.Height {
			legTotal++
			if colorNear(cloud.Colors[i], ch.Wardrobe.Pants, 40) {
				legPants++
			}
		}
	}
	if legTotal == 0 {
		t.Fatal("no leg samples found")
	}
	if frac := float64(legPants) / float64(legTotal); frac < 0.6 {
		t.Errorf("only %.0f%% of leg points wear pants", frac*100)
	}
}

func colorNear(a, b pointcloud.Color, tol int) bool {
	dr := int(a.R) - int(b.R)
	dg := int(a.G) - int(b.G)
	db := int(a.B) - int(b.B)
	return abs(dr) <= tol && abs(dg) <= tol && abs(db) <= tol
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPrimitiveAreas(t *testing.T) {
	// Sphere as degenerate capsule: area 4πr².
	c := capsule{a: geom.V(0, 0, 0), b: geom.V(0, 0, 0), r: 2}
	if got, want := c.area(), 4*math.Pi*4; math.Abs(got-want) > 1e-9 {
		t.Errorf("capsule sphere area = %v, want %v", got, want)
	}
	// Sphere as degenerate ellipsoid.
	e := ellipsoid{r: geom.V(1, 1, 1)}
	if got, want := e.area(), 4*math.Pi; math.Abs(got-want)/want > 0.02 {
		t.Errorf("ellipsoid sphere area = %v, want ~%v", got, want)
	}
}

func TestPrimitiveSamplesOnSurface(t *testing.T) {
	rng := geom.NewRNG(9)
	cap := capsule{a: geom.V(0, 0, 0), b: geom.V(0, 1, 0), r: 0.3}
	for i := 0; i < 500; i++ {
		p, n := cap.sample(rng)
		// Distance from axis segment must equal r.
		d := distToSegment(p, cap.a, cap.b)
		if math.Abs(d-cap.r) > 1e-9 {
			t.Fatalf("capsule sample %v at distance %v from axis", p, d)
		}
		if math.Abs(n.Norm()-1) > 1e-9 {
			t.Fatalf("capsule normal not unit: %v", n)
		}
	}
	ell := ellipsoid{c: geom.V(1, 2, 3), r: geom.V(0.5, 1, 0.25)}
	for i := 0; i < 500; i++ {
		p, _ := ell.sample(rng)
		q := p.Sub(ell.c)
		val := q.X*q.X/(ell.r.X*ell.r.X) + q.Y*q.Y/(ell.r.Y*ell.r.Y) + q.Z*q.Z/(ell.r.Z*ell.r.Z)
		if math.Abs(val-1) > 1e-9 {
			t.Fatalf("ellipsoid sample off surface: %v", val)
		}
	}
}

func distToSegment(p, a, b geom.Vec3) float64 {
	ab := b.Sub(a)
	if ab.Norm2() == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / ab.Norm2()
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return p.Dist(a.Add(ab.Scale(t)))
}
