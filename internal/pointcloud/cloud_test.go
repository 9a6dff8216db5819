package pointcloud

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/geom"
)

func cubeCloud(n int, seed uint64) *Cloud {
	rng := geom.NewRNG(seed)
	c := New(n)
	for i := 0; i < n; i++ {
		c.Append(geom.V(rng.Float64(), rng.Float64(), rng.Float64()), nil, nil)
	}
	return c
}

func coloredCloud(n int, seed uint64) *Cloud {
	rng := geom.NewRNG(seed)
	c := &Cloud{Colors: []Color{}}
	for i := 0; i < n; i++ {
		col := Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		c.Append(geom.V(rng.Float64(), rng.Float64(), rng.Float64()), &col, nil)
	}
	return c
}

func TestCloudValidate(t *testing.T) {
	c := cubeCloud(10, 1)
	if err := c.Validate(); err != nil {
		t.Fatalf("valid cloud rejected: %v", err)
	}
	c.Colors = make([]Color, 3)
	err := c.Validate()
	if !errors.Is(err, ErrAttributeLength) {
		t.Fatalf("mismatched colors not detected: %v", err)
	}
	c.Colors = nil
	c.Normals = make([]geom.Vec3, 2)
	if !errors.Is(c.Validate(), ErrAttributeLength) {
		t.Fatal("mismatched normals not detected")
	}
}

func TestCloudCloneIsDeep(t *testing.T) {
	c := coloredCloud(5, 2)
	c.Normals = make([]geom.Vec3, c.Len())
	d := c.Clone()
	d.Points[0] = geom.V(99, 99, 99)
	d.Colors[0] = Color{R: 1}
	d.Normals[0] = geom.V(9, 9, 9)
	if c.Points[0] == d.Points[0] || c.Colors[0] == d.Colors[0] || c.Normals[0] == d.Normals[0] {
		t.Fatal("clone shares storage with original")
	}
}

func TestCloudAppendBackfillsAttributes(t *testing.T) {
	c := &Cloud{}
	c.Append(geom.V(0, 0, 0), nil, nil)
	col := Color{R: 10}
	c.Append(geom.V(1, 1, 1), &col, nil)
	if err := c.Validate(); err != nil {
		t.Fatalf("backfill broke invariant: %v", err)
	}
	if c.Colors[0] != (Color{}) || c.Colors[1] != col {
		t.Errorf("colors = %v", c.Colors)
	}
}

func TestCloudBounds(t *testing.T) {
	c := &Cloud{}
	c.Append(geom.V(0, 0, 0), nil, nil)
	c.Append(geom.V(2, 4, 6), nil, nil)
	b := c.Bounds()
	if b.Min != geom.V(0, 0, 0) || b.Max != geom.V(2, 4, 6) {
		t.Errorf("bounds = %v", b)
	}
}

func TestCloudTransforms(t *testing.T) {
	c := &Cloud{}
	c.Append(geom.V(2, 2, 0), nil, nil)
	c.Normals = []geom.Vec3{geom.V(1, 0, 0)}
	c.RotateY(math.Pi)
	if c.Points[0].Dist(geom.V(-2, 2, 0)) > 1e-12 {
		t.Errorf("rotate = %v", c.Points[0])
	}
	if c.Normals[0].Dist(geom.V(-1, 0, 0)) > 1e-12 {
		t.Errorf("normal not rotated: %v", c.Normals[0])
	}
}

func TestCloudSelect(t *testing.T) {
	c := coloredCloud(10, 6)
	s := c.Select([]int{3, 1, 7})
	if s.Len() != 3 {
		t.Fatalf("select len = %d", s.Len())
	}
	if s.Points[0] != c.Points[3] || s.Points[1] != c.Points[1] || s.Points[2] != c.Points[7] {
		t.Error("select order wrong")
	}
	if s.Colors[0] != c.Colors[3] {
		t.Error("select lost attributes")
	}
}

func TestColorGray(t *testing.T) {
	if g := (Color{R: 255, G: 255, B: 255}).Gray(); math.Abs(g-255) > 0.01 {
		t.Errorf("white gray = %v", g)
	}
	if g := (Color{}).Gray(); g != 0 {
		t.Errorf("black gray = %v", g)
	}
}
