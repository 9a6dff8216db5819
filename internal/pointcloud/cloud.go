// Package pointcloud provides the point-cloud container and the geometric
// operations the paper's pipeline needs: bounds, rotation, voxel
// downsampling, and spatial indexing with nearest-neighbour queries. It
// plays the role Open3D plays in the paper's experiment section (point
// cloud reading, data format conversion, preprocessing), implemented in
// pure Go.
package pointcloud

import (
	"errors"
	"fmt"

	"qarv/internal/geom"
)

// Color is an 8-bit-per-channel RGB color, matching the color attributes of
// the 8i Voxelized Full Bodies PLY files.
type Color struct {
	R, G, B uint8
}

// Gray returns the luma of the color in [0,255] using Rec. 601 weights.
func (c Color) Gray() float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// Cloud is a point cloud with optional per-point colors and normals.
// Attribute slices are either nil or exactly len(Points) long; Validate
// enforces this invariant.
type Cloud struct {
	Points  []geom.Vec3
	Colors  []Color
	Normals []geom.Vec3
}

// ErrAttributeLength is returned by Validate when an attribute slice is
// present but does not match the number of points.
var ErrAttributeLength = errors.New("pointcloud: attribute length does not match point count")

// New returns an empty cloud with capacity for n points.
func New(n int) *Cloud {
	return &Cloud{Points: make([]geom.Vec3, 0, n)}
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// HasColors reports whether the cloud carries per-point colors.
func (c *Cloud) HasColors() bool { return len(c.Colors) > 0 }

// HasNormals reports whether the cloud carries per-point normals.
func (c *Cloud) HasNormals() bool { return len(c.Normals) > 0 }

// Validate checks the attribute-length invariant.
func (c *Cloud) Validate() error {
	if c.Colors != nil && len(c.Colors) != len(c.Points) {
		return fmt.Errorf("%w: %d colors for %d points", ErrAttributeLength, len(c.Colors), len(c.Points))
	}
	if c.Normals != nil && len(c.Normals) != len(c.Points) {
		return fmt.Errorf("%w: %d normals for %d points", ErrAttributeLength, len(c.Normals), len(c.Points))
	}
	return nil
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{Points: make([]geom.Vec3, len(c.Points))}
	copy(out.Points, c.Points)
	if c.HasColors() {
		out.Colors = make([]Color, len(c.Colors))
		copy(out.Colors, c.Colors)
	}
	if c.HasNormals() {
		out.Normals = make([]geom.Vec3, len(c.Normals))
		copy(out.Normals, c.Normals)
	}
	return out
}

// Append adds a point with optional attributes. Passing attributes to a
// cloud that previously had none backfills defaults so the invariant holds.
func (c *Cloud) Append(p geom.Vec3, color *Color, normal *geom.Vec3) {
	c.Points = append(c.Points, p)
	if color != nil {
		for len(c.Colors) < len(c.Points)-1 {
			c.Colors = append(c.Colors, Color{})
		}
		c.Colors = append(c.Colors, *color)
	} else if c.Colors != nil {
		c.Colors = append(c.Colors, Color{})
	}
	if normal != nil {
		for len(c.Normals) < len(c.Points)-1 {
			c.Normals = append(c.Normals, geom.Vec3{})
		}
		c.Normals = append(c.Normals, *normal)
	} else if c.Normals != nil {
		c.Normals = append(c.Normals, geom.Vec3{})
	}
}

// Bounds returns the tight axis-aligned bounding box of the points.
func (c *Cloud) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, p := range c.Points {
		b = b.Extend(p)
	}
	return b
}

// RotateY rotates every point (and normal) by angle radians around +Y about
// the origin, in place.
func (c *Cloud) RotateY(angle float64) {
	for i := range c.Points {
		c.Points[i] = c.Points[i].RotateY(angle)
	}
	for i := range c.Normals {
		c.Normals[i] = c.Normals[i].RotateY(angle)
	}
}

// Select returns a new cloud with the points at the given indices, in order.
func (c *Cloud) Select(indices []int) *Cloud {
	out := &Cloud{Points: make([]geom.Vec3, 0, len(indices))}
	if c.HasColors() {
		out.Colors = make([]Color, 0, len(indices))
	}
	if c.HasNormals() {
		out.Normals = make([]geom.Vec3, 0, len(indices))
	}
	for _, i := range indices {
		out.Points = append(out.Points, c.Points[i])
		if c.HasColors() {
			out.Colors = append(out.Colors, c.Colors[i])
		}
		if c.HasNormals() {
			out.Normals = append(out.Normals, c.Normals[i])
		}
	}
	return out
}
