package pointcloud

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/geom"
)

func cubeCloud(n int, seed uint64) *Cloud {
	rng := geom.NewRNG(seed)
	c := &Cloud{Points: make([]geom.Vec3, 0, n)}
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

func TestColorGray(t *testing.T) {
	if g := (Color{R: 255, G: 255, B: 255}).Gray(); math.Abs(g-255) > 0.01 {
		t.Errorf("white gray = %v", g)
	}
	if g := (Color{}).Gray(); g != 0 {
		t.Errorf("black gray = %v", g)
	}
}
