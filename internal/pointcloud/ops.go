package pointcloud

import (
	"errors"
	"math"
	"sort"

	"qarv/internal/geom"
)

// ErrInvalidVoxelSize is returned when a non-positive voxel size is given.
var ErrInvalidVoxelSize = errors.New("pointcloud: voxel size must be positive")

// VoxelDownsample quantizes the cloud onto a grid of the given voxel size
// and returns one point per occupied voxel: the centroid of its points,
// with the average color. This matches Open3D's voxel_down_sample and is
// the "data format conversion" step that precedes octree construction.
func (c *Cloud) VoxelDownsample(voxelSize float64) (*Cloud, error) {
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
	// Deterministic output order: sort cell keys.
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

// MeanNeighborDistance estimates the mean distance from each of up to
// sample points to its nearest neighbour, a standard density measure used
// to pick voxel sizes. A nil RNG samples the first
// points deterministically.
func (c *Cloud) MeanNeighborDistance(sample int, rng *geom.RNG) float64 {
	n := c.Len()
	if n < 2 {
		return 0
	}
	if sample <= 0 || sample > n {
		sample = n
	}
	idx := NewGridIndex(c, 0)
	sum := 0.0
	count := 0
	for s := 0; s < sample; s++ {
		i := s
		if rng != nil {
			i = rng.Intn(n)
		}
		_, d2 := idx.NearestExcluding(c.Points[i], i)
		if d2 >= 0 {
			sum += math.Sqrt(d2)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// UniformSubsample keeps every k-th point (k ≥ 1), a cheap decimation.
func (c *Cloud) UniformSubsample(k int) *Cloud {
	if k <= 1 {
		return c.Clone()
	}
	indices := make([]int, 0, c.Len()/k+1)
	for i := 0; i < c.Len(); i += k {
		indices = append(indices, i)
	}
	return c.Select(indices)
}
