package pointcloud

import (
	"math"
	"sort"
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

// voxelDownsampleMap is the hash-map VoxelDownsample the radix-sort one
// replaced, kept as the reference it must match bit for bit.
func voxelDownsampleMap(c *Cloud, voxelSize float64) (*Cloud, error) {
	if voxelSize <= 0 {
		return nil, ErrInvalidVoxelSize
	}
	if c.Len() == 0 {
		return &Cloud{}, nil
	}
	b := c.Bounds()
	type acc struct {
		sum      geom.Vec3
		r, g, bl float64
		n        int
	}
	cells := make(map[[3]int32]*acc, c.Len()/4+1)
	for i, p := range c.Points {
		key := [3]int32{
			int32(math.Floor((p.X - b.Min.X) / voxelSize)),
			int32(math.Floor((p.Y - b.Min.Y) / voxelSize)),
			int32(math.Floor((p.Z - b.Min.Z) / voxelSize)),
		}
		a, ok := cells[key]
		if !ok {
			a = &acc{}
			cells[key] = a
		}
		a.sum = a.sum.Add(p)
		if c.HasColors() {
			a.r += float64(c.Colors[i].R)
			a.g += float64(c.Colors[i].G)
			a.bl += float64(c.Colors[i].B)
		}
		a.n++
	}
	keys := make([][3]int32, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, bk := keys[i], keys[j]
		if a[0] != bk[0] {
			return a[0] < bk[0]
		}
		if a[1] != bk[1] {
			return a[1] < bk[1]
		}
		return a[2] < bk[2]
	})
	out := &Cloud{Points: make([]geom.Vec3, 0, len(cells))}
	if c.HasColors() {
		out.Colors = make([]Color, 0, len(cells))
	}
	for _, k := range keys {
		a := cells[k]
		inv := 1 / float64(a.n)
		out.Points = append(out.Points, a.sum.Scale(inv))
		if c.HasColors() {
			out.Colors = append(out.Colors, Color{
				R: uint8(a.r*inv + 0.5),
				G: uint8(a.g*inv + 0.5),
				B: uint8(a.bl*inv + 0.5),
			})
		}
	}
	return out, nil
}

// sameBits reports whether two vectors are equal bit for bit, so that
// signed zeros and NaN payloads count.
func sameBits(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// checkDownsampleMatchesMap requires VoxelDownsample to equal the map
// reference bit for bit: the same voxels, in the same order, with the
// same centroids and colors.
func checkDownsampleMatchesMap(t *testing.T, c *Cloud, voxel float64) {
	t.Helper()
	got, err := c.VoxelDownsample(voxel)
	want, wantErr := voxelDownsampleMap(c, voxel)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("voxel %v: error %v, reference %v", voxel, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Len() != want.Len() || len(got.Colors) != len(want.Colors) || (got.Colors == nil) != (want.Colors == nil) {
		t.Fatalf("voxel %v: %d points, %d colors; reference %d, %d", voxel, got.Len(), len(got.Colors), want.Len(), len(want.Colors))
	}
	for i := range want.Points {
		if !sameBits(got.Points[i], want.Points[i]) {
			t.Fatalf("voxel %v: point %d = %v, reference %v", voxel, i, got.Points[i], want.Points[i])
		}
	}
	for i := range want.Colors {
		if got.Colors[i] != want.Colors[i] {
			t.Fatalf("voxel %v: color %d = %v, reference %v", voxel, i, got.Colors[i], want.Colors[i])
		}
	}
}

func TestVoxelDownsampleMatchesMapReference(t *testing.T) {
	withDuplicates := coloredCloud(300, 31)
	for i := 0; i < 300; i += 3 {
		col := withDuplicates.Colors[i]
		withDuplicates.Append(withDuplicates.Points[i], &col, nil)
	}
	signedZeros := &Cloud{}
	for _, v := range []float64{0, math.Copysign(0, -1)} {
		signedZeros.Append(geom.V(v, -v, v), nil, nil)
	}
	single := &Cloud{Colors: []Color{}}
	single.Append(geom.V(-3, 7, 1e-9), &Color{R: 1, G: 2, B: 255}, nil)
	// Spans of 2^25 voxels on every axis: 75 key bits, three digit passes
	// per axis.
	wide := &Cloud{}
	rng := geom.NewRNG(32)
	for i := 0; i < 2000; i++ {
		wide.Append(geom.V(rng.Range(-1.6e7, 1.6e7), rng.Range(-1.6e7, 1.6e7), rng.Range(-1.6e7, 1.6e7)), nil, nil)
	}
	wide.Append(geom.V(-1.7e7, -1.7e7, -1.7e7), nil, nil)
	wide.Append(geom.V(1.7e7, 1.7e7, 1.7e7), nil, nil)
	// Voxel triples past int32: the conversion saturates or wraps as the
	// platform does, identically in both.
	overflow := &Cloud{}
	for i := 0; i < 200; i++ {
		overflow.Append(geom.V(float64(i)*1e9, float64(i%7), -float64(i)*3e10), nil, nil)
	}
	nonFinite := cubeCloud(100, 33)
	nonFinite.Append(geom.V(math.NaN(), 0.5, 0.5), nil, nil)
	nonFinite.Append(geom.V(0.5, math.Inf(1), 0.5), nil, nil)
	nonFinite.Append(geom.V(0.5, 0.5, math.Inf(-1)), nil, nil)
	flat := &Cloud{}
	for i := 0; i < 500; i++ {
		flat.Append(geom.V(float64(i%25)*0.1, 2, float64(i/25)*0.1), nil, nil)
	}
	cases := []struct {
		name   string
		c      *Cloud
		voxels []float64
	}{
		{"colored", coloredCloud(3000, 30), []float64{0.001, 0.01, 0.07, 0.25, 1}},
		{"plain", cubeCloud(3000, 34), []float64{0.003, 0.05, 0.5}},
		{"duplicates", withDuplicates, []float64{1e-6, 0.1}},
		{"one voxel", coloredCloud(50, 35), []float64{10, 1e300}},
		{"one point", single, []float64{1e-12, 1, 1e12}},
		{"signed zeros", signedZeros, []float64{1}},
		{"wide", wide, []float64{1, 0.99}},
		{"overflow", overflow, []float64{1, 1e-3}},
		{"non-finite", nonFinite, []float64{0.1}},
		{"flat", flat, []float64{0.1, 0.05}},
		{"empty", &Cloud{}, []float64{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range append(tc.voxels, 0, -1) {
				checkDownsampleMatchesMap(t, tc.c, v)
			}
		})
	}
}

// FuzzVoxelDownsample decodes bytes into a small colored cloud and a voxel
// size and checks VoxelDownsample against the map reference.
//
// Layout: data[0] picks the voxel size (2^(data[0]%48 − 24)) and data[1]
// the coordinate scale (2^(data[1]%64 − 16), so spans reach past 64 key
// bits); then each 6-byte group is one point, three signed 8-bit
// coordinates times the scale and three color bytes.
func FuzzVoxelDownsample(f *testing.F) {
	f.Add([]byte{24, 16, 0, 0, 0, 1, 2, 3, 1, 1, 1, 4, 5, 6})
	f.Add([]byte{20, 16, 5, 5, 5, 9, 9, 9, 5, 5, 5, 200, 0, 7})       // duplicates
	f.Add([]byte{47, 16, 1, 2, 3, 0, 0, 0, 127, 127, 127, 0, 0, 0})   // one voxel
	f.Add([]byte{0, 63, 128, 0, 127, 1, 1, 1, 127, 128, 0, 2, 2, 2})  // wide spans
	f.Add([]byte{10, 40, 1, 0, 255, 3, 3, 3, 0, 1, 2, 4, 4, 4, 9, 9}) // partial group
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		voxel := math.Ldexp(1, int(data[0]%48)-24)
		scale := math.Ldexp(1, int(data[1]%64)-16)
		c := &Cloud{Colors: []Color{}}
		for i := 2; i+6 <= len(data) && c.Len() < 256; i += 6 {
			p := geom.V(float64(int8(data[i])), float64(int8(data[i+1])), float64(int8(data[i+2]))).Scale(scale)
			c.Append(p, &Color{R: data[i+3], G: data[i+4], B: data[i+5]}, nil)
		}
		checkDownsampleMatchesMap(t, c, voxel)
		c.Colors = nil
		checkDownsampleMatchesMap(t, c, voxel)
	})
}
