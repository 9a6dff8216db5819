// Package octree builds octrees over point clouds and provides the
// depth-controlled level-of-detail machinery the paper manipulates:
// per-depth occupancy profiles (the workload a(d)), LOD extraction at a
// chosen depth (the rendered cloud), and a compact occupancy-byte
// serialization. It replaces the Octree depth-control role of Open3D.
//
// Representation: each input point is assigned its full-resolution Morton
// key inside the cubified bounding box; keys are kept sorted. A depth-d
// octree node is then a run of keys sharing a 3·d-bit prefix, which makes
// occupancy counting, LOD extraction, and serialization linear scans.
package octree

import (
	"errors"
	"fmt"
	"sort"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

// MaxDepth is the deepest supported octree (limited by Morton precision).
const MaxDepth = geom.MortonBits

// Errors returned by Build; matchable with errors.Is.
var (
	ErrEmptyCloud = errors.New("octree: cannot build over an empty cloud")
	ErrBadDepth   = errors.New("octree: depth out of range")
)

// Octree is an immutable octree over a point cloud.
type Octree struct {
	box      geom.AABB
	maxDepth int
	cloud    *pointcloud.Cloud
	keys     []uint64 // full-resolution Morton keys, sorted
	order    []int32  // order[i] = cloud point index of keys[i]
	profile  []int    // occupied node count per depth 0..maxDepth (lazily built)
}

// Build constructs an octree of the given maximum depth over cloud.
// The cloud is referenced, not copied; it must not be mutated afterwards.
func Build(cloud *pointcloud.Cloud, maxDepth int) (*Octree, error) {
	if cloud.Len() == 0 {
		return nil, ErrEmptyCloud
	}
	if maxDepth < 1 || maxDepth > MaxDepth {
		return nil, fmt.Errorf("%w: %d (want 1..%d)", ErrBadDepth, maxDepth, MaxDepth)
	}
	box := cloud.Bounds().Cubified()
	// Guard against degenerate (single-point) clouds: give the cube a
	// minimal extent so lattice quantization stays well defined.
	if box.LongestAxisLength() == 0 {
		box = box.Expanded(0.5)
	}
	n := cloud.Len()
	keys := make([]uint64, n)
	order := make([]int32, n)
	for i, p := range cloud.Points {
		keys[i] = geom.MortonFromPoint(p, box)
		order[i] = int32(i)
	}
	sort.Sort(&keyOrder{keys: keys, order: order})
	return &Octree{
		box:      box,
		maxDepth: maxDepth,
		cloud:    cloud,
		keys:     keys,
		order:    order,
	}, nil
}

// keyOrder co-sorts keys and order by key.
type keyOrder struct {
	keys  []uint64
	order []int32
}

func (k *keyOrder) Len() int           { return len(k.keys) }
func (k *keyOrder) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyOrder) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.order[i], k.order[j] = k.order[j], k.order[i]
}

// MaxDepth returns the octree's maximum depth.
func (o *Octree) MaxDepth() int { return o.maxDepth }

// OccupiedNodes returns the number of occupied voxels at depth d — the
// paper's per-frame workload a(d): the number of points the renderer must
// process when the controller picks depth d. Depth 0 is the root (1 node).
func (o *Octree) OccupiedNodes(d int) (int, error) {
	if d < 0 || d > o.maxDepth {
		return 0, fmt.Errorf("%w: %d (octree max %d)", ErrBadDepth, d, o.maxDepth)
	}
	return o.profileSlice()[d], nil
}

// Profile returns occupied-node counts for every depth 0..MaxDepth().
// The returned slice is a copy.
func (o *Octree) Profile() []int {
	p := o.profileSlice()
	out := make([]int, len(p))
	copy(out, p)
	return out
}

func (o *Octree) profileSlice() []int {
	if o.profile != nil {
		return o.profile
	}
	counts := make([]int, o.maxDepth+1)
	counts[0] = 1
	for d := 1; d <= o.maxDepth; d++ {
		distinct := 0
		var prev uint64
		for i, k := range o.keys {
			pre := geom.MortonAtDepth(k, d)
			if i == 0 || pre != prev {
				distinct++
				prev = pre
			}
		}
		counts[d] = distinct
	}
	o.profile = counts
	return counts
}

// Node is one occupied voxel at some depth: the key prefix plus the range
// of sorted point positions it covers.
type Node struct {
	Key        uint64 // depth-d Morton prefix
	Depth      int
	Start, End int // half-open range into the octree's sorted point order
}

// Count returns the number of points inside the node.
func (n Node) Count() int { return n.End - n.Start }

// ForEachNode visits every occupied node at depth d in Morton order.
func (o *Octree) ForEachNode(d int, visit func(Node)) error {
	if d < 0 || d > o.maxDepth {
		return fmt.Errorf("%w: %d", ErrBadDepth, d)
	}
	start := 0
	for start < len(o.keys) {
		prefix := geom.MortonAtDepth(o.keys[start], d)
		end := start + 1
		for end < len(o.keys) && geom.MortonAtDepth(o.keys[end], d) == prefix {
			end++
		}
		visit(Node{Key: prefix, Depth: d, Start: start, End: end})
		start = end
	}
	return nil
}

// LODMode selects how LOD points are positioned.
type LODMode int

const (
	// LODCentroid places each LOD point at the centroid of the points in
	// its voxel (Open3D voxel_down_sample semantics). Default.
	LODCentroid LODMode = iota + 1
	// LODVoxelCenter places each LOD point at the geometric voxel center
	// (G-PCC / serialization semantics).
	LODVoxelCenter
)

// LOD extracts the level-of-detail cloud at depth d: one point per occupied
// voxel with the average color of its points. This is the cloud the AR
// device renders when the controller picks depth d; its size equals
// OccupiedNodes(d).
func (o *Octree) LOD(d int, mode LODMode) (*pointcloud.Cloud, error) {
	if d < 0 || d > o.maxDepth {
		return nil, fmt.Errorf("%w: %d", ErrBadDepth, d)
	}
	nodes, _ := o.OccupiedNodes(d)
	out := &pointcloud.Cloud{Points: make([]geom.Vec3, 0, nodes)}
	hasColors := o.cloud.HasColors()
	if hasColors {
		out.Colors = make([]pointcloud.Color, 0, nodes)
	}
	err := o.ForEachNode(d, func(n Node) {
		switch mode {
		case LODVoxelCenter:
			out.Points = append(out.Points, geom.VoxelCenter(n.Key, d, o.box))
		default:
			var sum geom.Vec3
			for i := n.Start; i < n.End; i++ {
				sum = sum.Add(o.cloud.Points[o.order[i]])
			}
			out.Points = append(out.Points, sum.Scale(1/float64(n.Count())))
		}
		if hasColors {
			var r, g, b float64
			for i := n.Start; i < n.End; i++ {
				c := o.cloud.Colors[o.order[i]]
				r += float64(c.R)
				g += float64(c.G)
				b += float64(c.B)
			}
			inv := 1 / float64(n.Count())
			out.Colors = append(out.Colors, pointcloud.Color{
				R: uint8(r*inv + 0.5),
				G: uint8(g*inv + 0.5),
				B: uint8(b*inv + 0.5),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
