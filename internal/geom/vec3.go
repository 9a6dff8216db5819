// Package geom provides the small geometric vocabulary shared by the
// point-cloud, octree, and synthetic-dataset substrates: 3-vectors,
// axis-aligned bounding boxes, Morton (Z-order) codes, and a deterministic
// splittable RNG used to keep every experiment reproducible.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector of float64, used for positions, directions,
// and scales. Vec3 is a value type; all methods return new values.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v − u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Mul returns the component-wise product v ⊙ u.
func (v Vec3) Mul(u Vec3) Vec3 { return Vec3{v.X * u.X, v.Y * u.Y, v.Z * u.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v × u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		X: v.Y*u.Z - v.Z*u.Y,
		Y: v.Z*u.X - v.X*u.Z,
		Z: v.X*u.Y - v.Y*u.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and u.
func (v Vec3) Dist(u Vec3) float64 { return v.Sub(u).Norm() }

// Dist2 returns the squared Euclidean distance between v and u.
func (v Vec3) Dist2(u Vec3) float64 { return v.Sub(u).Norm2() }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged (there is no meaningful direction to preserve).
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Min returns the component-wise minimum of v and u.
func (v Vec3) Min(u Vec3) Vec3 {
	return Vec3{math.Min(v.X, u.X), math.Min(v.Y, u.Y), math.Min(v.Z, u.Z)}
}

// Max returns the component-wise maximum of v and u.
func (v Vec3) Max(u Vec3) Vec3 {
	return Vec3{math.Max(v.X, u.X), math.Max(v.Y, u.Y), math.Max(v.Z, u.Z)}
}

// MaxComponent returns the largest of the three components.
func (v Vec3) MaxComponent() float64 { return math.Max(v.X, math.Max(v.Y, v.Z)) }

// RotateY returns v rotated by angle radians around the +Y axis.
// Human bodies in the synthetic dataset stand along +Y, so yaw rotations
// around Y are the common pose operation.
func (v Vec3) RotateY(angle float64) Vec3 {
	s, c := math.Sin(angle), math.Cos(angle)
	return Vec3{
		X: c*v.X + s*v.Z,
		Y: v.Y,
		Z: -s*v.X + c*v.Z,
	}
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", v.X, v.Y, v.Z)
}
