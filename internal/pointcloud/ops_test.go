package pointcloud

import (
	"math"
	"testing"
	"testing/quick"

	"qarv/internal/geom"
)

func TestVoxelDownsampleReducesAndCovers(t *testing.T) {
	c := cubeCloud(2000, 7)
	down, err := c.VoxelDownsample(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if down.Len() >= c.Len() {
		t.Fatalf("downsample did not reduce: %d -> %d", c.Len(), down.Len())
	}
	// A unit cube at voxel 0.25 has at most 4^3 = 64 occupied cells ... but
	// centroids may straddle; occupied cells are bounded by 5^3 due to
	// bounding-box anchoring.
	if down.Len() > 125 {
		t.Errorf("downsample kept %d cells, want <= 125", down.Len())
	}
	// Every output point must lie inside the original bounds.
	b := c.Bounds()
	for _, p := range down.Points {
		if !b.ContainsClosed(p) {
			t.Fatalf("downsampled point %v escaped bounds %v", p, b)
		}
	}
}

func TestVoxelDownsampleDeterministic(t *testing.T) {
	c := coloredCloud(500, 8)
	a, err := c.VoxelDownsample(0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.VoxelDownsample(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] || a.Colors[i] != b.Colors[i] {
			t.Fatal("nondeterministic output order")
		}
	}
}

func TestVoxelDownsampleErrors(t *testing.T) {
	c := cubeCloud(10, 9)
	if _, err := c.VoxelDownsample(0); err == nil {
		t.Error("zero voxel size must error")
	}
	if _, err := c.VoxelDownsample(-1); err == nil {
		t.Error("negative voxel size must error")
	}
	empty := &Cloud{}
	out, err := empty.VoxelDownsample(0.5)
	if err != nil || out.Len() != 0 {
		t.Errorf("empty cloud: %v, %v", out, err)
	}
}

func TestVoxelDownsampleAveragesColors(t *testing.T) {
	c := &Cloud{Colors: []Color{}}
	c.Append(geom.V(0.1, 0.1, 0.1), &Color{R: 100}, nil)
	c.Append(geom.V(0.2, 0.2, 0.2), &Color{R: 200}, nil)
	down, err := c.VoxelDownsample(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if down.Len() != 1 {
		t.Fatalf("want single voxel, got %d", down.Len())
	}
	if down.Colors[0].R != 150 {
		t.Errorf("averaged R = %d, want 150", down.Colors[0].R)
	}
	if down.Points[0].Dist(geom.V(0.15, 0.15, 0.15)) > 1e-12 {
		t.Errorf("centroid = %v", down.Points[0])
	}
}

func TestVoxelDownsampleFinerKeepsMore(t *testing.T) {
	// Property: shrinking the voxel size never decreases the cell count.
	c := cubeCloud(1000, 10)
	prev := 0
	for _, size := range []float64{0.5, 0.25, 0.125, 0.0625} {
		down, err := c.VoxelDownsample(size)
		if err != nil {
			t.Fatal(err)
		}
		if down.Len() < prev {
			t.Fatalf("voxel %v kept %d < previous %d", size, down.Len(), prev)
		}
		prev = down.Len()
	}
}

func TestUniformSubsample(t *testing.T) {
	c := cubeCloud(100, 11)
	s := c.UniformSubsample(10)
	if s.Len() != 10 {
		t.Errorf("subsample len = %d", s.Len())
	}
	if s.Points[1] != c.Points[10] {
		t.Error("subsample stride wrong")
	}
	if c.UniformSubsample(1).Len() != c.Len() {
		t.Error("k=1 must keep everything")
	}
}

func TestMeanNeighborDistanceLattice(t *testing.T) {
	// Points on a unit lattice: every nearest neighbour is at distance 1.
	c := &Cloud{}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				c.Append(geom.V(float64(x), float64(y), float64(z)), nil, nil)
			}
		}
	}
	d := c.MeanNeighborDistance(0, nil)
	if math.Abs(d-1) > 1e-9 {
		t.Errorf("lattice mean neighbour distance = %v, want 1", d)
	}
}

func TestMeanNeighborDistanceDegenerate(t *testing.T) {
	if (&Cloud{}).MeanNeighborDistance(10, nil) != 0 {
		t.Error("empty cloud distance must be 0")
	}
	single := cubeCloud(1, 14)
	if single.MeanNeighborDistance(10, nil) != 0 {
		t.Error("single point distance must be 0")
	}
}

func TestVoxelDownsamplePropertyPointCount(t *testing.T) {
	// Property: output size is between 1 and input size for any positive
	// voxel size and non-empty cloud.
	f := func(seed uint64, sizeRaw float64) bool {
		size := math.Abs(math.Mod(sizeRaw, 2)) + 0.01
		c := cubeCloud(50, seed%1000+1)
		out, err := c.VoxelDownsample(size)
		if err != nil {
			return false
		}
		return out.Len() >= 1 && out.Len() <= c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
