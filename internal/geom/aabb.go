package geom

import (
	"fmt"
	"math"
)

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns the identity element for Extend: a box that contains
// nothing and extends to the opposite infinities.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{
		Min: Vec3{inf, inf, inf},
		Max: Vec3{-inf, -inf, -inf},
	}
}

// NewAABB returns the box spanning the component-wise min/max of a and b.
func NewAABB(a, b Vec3) AABB {
	return AABB{Min: a.Min(b), Max: a.Max(b)}
}

// IsEmpty reports whether the box contains no points (any axis inverted).
func (b AABB) IsEmpty() bool {
	return b.Min.X >= b.Max.X || b.Min.Y >= b.Max.Y || b.Min.Z >= b.Max.Z
}

// ContainsClosed reports whether p lies inside the closed box [Min, Max],
// so a cloud's extreme point still counts as inside.
func (b AABB) ContainsClosed(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Extend returns the smallest box containing both b and p.
func (b AABB) Extend(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Size returns the per-axis extents (Max − Min).
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Center returns the midpoint of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Volume returns the volume of the box; empty boxes report 0.
func (b AABB) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// LongestAxisLength returns the largest per-axis extent.
func (b AABB) LongestAxisLength() float64 { return b.Size().MaxComponent() }

// Cubified returns the smallest cube centered on b's center that contains b.
// Octrees are built over a cube so that every subdivision level has uniform
// voxel size on all axes (matching Open3D's octree convention).
func (b AABB) Cubified() AABB {
	if b.IsEmpty() {
		return b
	}
	half := b.LongestAxisLength() / 2
	c := b.Center()
	h := Vec3{half, half, half}
	return AABB{Min: c.Sub(h), Max: c.Add(h)}
}

// Expanded returns the box grown by pad on every side. Negative pad shrinks.
func (b AABB) Expanded(pad float64) AABB {
	p := Vec3{pad, pad, pad}
	return AABB{Min: b.Min.Sub(p), Max: b.Max.Add(p)}
}

// String implements fmt.Stringer.
func (b AABB) String() string {
	return fmt.Sprintf("AABB[%v .. %v]", b.Min, b.Max)
}
