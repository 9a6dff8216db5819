package pointcloud

import (
	"errors"
	"math"
	"math/bits"

	"qarv/internal/geom"
)

// ErrInvalidVoxelSize is returned when a non-positive voxel size is given.
var ErrInvalidVoxelSize = errors.New("pointcloud: voxel size must be positive")

// VoxelDownsample quantizes the cloud onto a grid of the given voxel size
// and returns one point per occupied voxel: the centroid of its points,
// with the average color. This matches Open3D's voxel_down_sample and is
// the "data format conversion" step that precedes octree construction.
//
// A point's voxel is int32(floor((p − min)/voxelSize)) on each axis, min
// being the cloud's bounds. Voxels come out in lexicographic (x, y, z)
// order of that triple. Each voxel's coordinates and color channels are
// summed from zero in point-index order and then scaled by 1/count, so the
// output is fixed bit for bit by the input.
//
// The voxels are found by a stable LSD radix sort of (voxel, point index)
// pairs, z digits first, then y, then x. Each axis is biased by its lowest
// voxel and takes only the digit passes its span needs.
func (c *Cloud) VoxelDownsample(voxelSize float64) (*Cloud, error) {
	if voxelSize <= 0 {
		return nil, ErrInvalidVoxelSize
	}
	n := c.Len()
	if n == 0 {
		return &Cloud{}, nil
	}
	b := c.Bounds()
	// The allocation's second half is the radix sort's other buffer.
	keys := make([]voxelKey, n, 2*n)
	lo := [3]int32{math.MaxInt32, math.MaxInt32, math.MaxInt32}
	hi := [3]int32{math.MinInt32, math.MinInt32, math.MinInt32}
	for i, p := range c.Points {
		cell := [3]int32{
			int32(math.Floor((p.X - b.Min.X) / voxelSize)),
			int32(math.Floor((p.Y - b.Min.Y) / voxelSize)),
			int32(math.Floor((p.Z - b.Min.Z) / voxelSize)),
		}
		for a, v := range cell {
			lo[a], hi[a] = min(lo[a], v), max(hi[a], v)
		}
		keys[i] = voxelKey{cell: cell, idx: int32(i)}
	}
	keys = radixSortVoxels(keys, keys[n:2*n], lo, hi)

	voxels := 1
	for j := 1; j < n; j++ {
		if keys[j].cell != keys[j-1].cell {
			voxels++
		}
	}
	out := &Cloud{Points: make([]geom.Vec3, 0, voxels)}
	if c.HasColors() {
		out.Colors = make([]Color, 0, voxels)
	}
	for j := 0; j < n; {
		var sum geom.Vec3
		var r, g, bl float64
		m := j
		for ; m < n && keys[m].cell == keys[j].cell; m++ {
			i := keys[m].idx
			sum = sum.Add(c.Points[i])
			if c.HasColors() {
				r += float64(c.Colors[i].R)
				g += float64(c.Colors[i].G)
				bl += float64(c.Colors[i].B)
			}
		}
		inv := 1 / float64(m-j)
		out.Points = append(out.Points, sum.Scale(inv))
		if c.HasColors() {
			out.Colors = append(out.Colors, Color{
				R: uint8(r*inv + 0.5),
				G: uint8(g*inv + 0.5),
				B: uint8(bl*inv + 0.5),
			})
		}
		j = m
	}
	return out, nil
}

// voxelKey is one point's voxel and its index in the cloud.
type voxelKey struct {
	cell [3]int32
	idx  int32
}

// radixBits is the digit width of radixSortVoxels: a 2048-entry count
// table stays in L1, and one pass covers a depth-10 capture's axis.
const radixBits = 11

// radixSortVoxels stably sorts keys by voxel, lexicographically, using tmp
// (as long as keys) as the other buffer, and returns whichever of the two
// holds the result. Axis a is sorted on cell[a] − lo[a], which lies in
// [0, hi[a] − lo[a]] as a uint32, in as many digit passes as that span's
// bit length needs; a flat axis needs none.
func radixSortVoxels(keys, tmp []voxelKey, lo, hi [3]int32) []voxelKey {
	var count [1 << radixBits]int32
	for a := 2; a >= 0; a-- {
		bias := uint32(lo[a])
		width := bits.Len32(uint32(hi[a]) - bias)
		for shift := 0; shift < width; shift += radixBits {
			clear(count[:])
			for _, k := range keys {
				count[(uint32(k.cell[a])-bias)>>shift&(1<<radixBits-1)]++
			}
			at := int32(0)
			for d, c := range count {
				count[d] = at
				at += c
			}
			for _, k := range keys {
				d := (uint32(k.cell[a]) - bias) >> shift & (1<<radixBits - 1)
				tmp[count[d]] = k
				count[d]++
			}
			keys, tmp = tmp, keys
		}
	}
	return keys
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
