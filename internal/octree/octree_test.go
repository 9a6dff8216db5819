package octree

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

func randomCloud(n int, seed uint64) *pointcloud.Cloud {
	rng := geom.NewRNG(seed)
	c := &pointcloud.Cloud{}
	for i := 0; i < n; i++ {
		col := pointcloud.Color{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		c.Append(geom.V(rng.Range(-1, 1), rng.Range(0, 1.8), rng.Range(-1, 1)), &col, nil)
	}
	return c
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(&pointcloud.Cloud{}, 5); !errors.Is(err, ErrEmptyCloud) {
		t.Errorf("empty cloud: %v", err)
	}
	c := randomCloud(10, 1)
	if _, err := Build(c, 0); !errors.Is(err, ErrBadDepth) {
		t.Errorf("depth 0: err = %v", err)
	}
	if _, err := Build(c, MaxDepth+1); !errors.Is(err, ErrBadDepth) {
		t.Errorf("too deep: err = %v", err)
	}
}

func TestProfileInvariants(t *testing.T) {
	c := randomCloud(5000, 2)
	o, err := Build(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	prof := o.Profile()
	if len(prof) != 11 {
		t.Fatalf("profile length = %d", len(prof))
	}
	if prof[0] != 1 {
		t.Errorf("root count = %d, want 1", prof[0])
	}
	for d := 1; d <= 10; d++ {
		if prof[d] < prof[d-1] {
			t.Errorf("profile not monotone at depth %d: %d < %d", d, prof[d], prof[d-1])
		}
		if limit := int(math.Pow(8, float64(d))); d < 8 && prof[d] > limit {
			t.Errorf("depth %d occupancy %d exceeds 8^d = %d", d, prof[d], limit)
		}
		if prof[d] > c.Len() {
			t.Errorf("depth %d occupancy %d exceeds point count %d", d, prof[d], c.Len())
		}
	}
	// Deep enough octree over a generic random cloud separates most points.
	if prof[10] < c.Len()/2 {
		t.Errorf("depth-10 occupancy %d suspiciously low for %d points", prof[10], c.Len())
	}
}

func TestOccupiedNodesMatchesProfile(t *testing.T) {
	o, err := Build(randomCloud(500, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	prof := o.Profile()
	for d := 0; d <= 8; d++ {
		got, err := o.OccupiedNodes(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != prof[d] {
			t.Errorf("OccupiedNodes(%d) = %d, profile %d", d, got, prof[d])
		}
	}
	if _, err := o.OccupiedNodes(9); !errors.Is(err, ErrBadDepth) {
		t.Errorf("out-of-range depth: %v", err)
	}
}

func TestForEachNodePartitionsPoints(t *testing.T) {
	// Property: at every depth, nodes partition all points exactly once
	// and node counts match the occupancy profile.
	c := randomCloud(1000, 4)
	o, err := Build(c, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 1, 3, 6, 9} {
		covered := 0
		nodes := 0
		prevKey := uint64(0)
		first := true
		if err := o.ForEachNode(d, func(n Node) {
			covered += n.Count()
			nodes++
			if !first && n.Key <= prevKey {
				t.Errorf("depth %d: node keys not strictly increasing", d)
			}
			prevKey = n.Key
			first = false
		}); err != nil {
			t.Fatal(err)
		}
		if covered != c.Len() {
			t.Errorf("depth %d: nodes cover %d points, want %d", d, covered, c.Len())
		}
		want, _ := o.OccupiedNodes(d)
		if nodes != want {
			t.Errorf("depth %d: %d nodes, profile says %d", d, nodes, want)
		}
	}
}

func TestLODCentroidMatchesOccupancyAndBounds(t *testing.T) {
	c := randomCloud(2000, 5)
	o, err := Build(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{2, 5, 8} {
		lod, err := o.LOD(d, LODCentroid)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := o.OccupiedNodes(d)
		if lod.Len() != want {
			t.Errorf("depth %d: LOD size %d != occupancy %d", d, lod.Len(), want)
		}
		if !lod.HasColors() {
			t.Errorf("depth %d: LOD lost colors", d)
		}
		box := o.box
		for _, p := range lod.Points {
			if !box.ContainsClosed(p) {
				t.Fatalf("depth %d: LOD point %v outside box", d, p)
			}
		}
	}
}

func TestLODVoxelCenterInsideVoxel(t *testing.T) {
	c := randomCloud(300, 6)
	o, err := Build(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	lod, err := o.LOD(4, LODVoxelCenter)
	if err != nil {
		t.Fatal(err)
	}
	// Voxel centers at depth 4 form a lattice: pairwise distinct.
	seen := make(map[geom.Vec3]bool, lod.Len())
	for _, p := range lod.Points {
		if seen[p] {
			t.Fatal("duplicate voxel center in LOD")
		}
		seen[p] = true
	}
}

func TestLODDepthMonotoneQuality(t *testing.T) {
	// Deeper LOD keeps at least as many points (the quality/cost knob the
	// controller exploits).
	o, err := Build(randomCloud(3000, 7), 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for d := 1; d <= 10; d++ {
		lod, err := o.LOD(d, LODCentroid)
		if err != nil {
			t.Fatal(err)
		}
		if lod.Len() < prev {
			t.Fatalf("LOD size decreased at depth %d: %d -> %d", d, prev, lod.Len())
		}
		prev = lod.Len()
	}
}

func TestSinglePointCloud(t *testing.T) {
	c := &pointcloud.Cloud{}
	c.Append(geom.V(1, 2, 3), nil, nil)
	o, err := Build(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= 5; d++ {
		n, err := o.OccupiedNodes(d)
		if err != nil || n != 1 {
			t.Errorf("depth %d: %d nodes (%v), want 1", d, n, err)
		}
	}
	lod, err := o.LOD(5, LODCentroid)
	if err != nil || lod.Len() != 1 {
		t.Fatalf("single point LOD: %v, %v", lod, err)
	}
	if lod.Points[0].Dist(geom.V(1, 2, 3)) > 1e-9 {
		t.Errorf("LOD centroid = %v", lod.Points[0])
	}
}

func TestDuplicatePointsCollapse(t *testing.T) {
	c := &pointcloud.Cloud{}
	for i := 0; i < 10; i++ {
		c.Append(geom.V(0.5, 0.5, 0.5), nil, nil)
	}
	c.Append(geom.V(0.9, 0.9, 0.9), nil, nil)
	o, err := Build(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := o.OccupiedNodes(10)
	if n != 2 {
		t.Errorf("duplicates must collapse: %d occupied leaves, want 2", n)
	}
}

func TestProfileMonotoneProperty(t *testing.T) {
	// Property over random clouds: occupancy non-decreasing in depth and
	// bounded by min(#points, 8^d).
	f := func(seed uint64) bool {
		c := randomCloud(200, seed%512+1)
		o, err := Build(c, 8)
		if err != nil {
			return false
		}
		prof := o.Profile()
		for d := 1; d <= 8; d++ {
			if prof[d] < prof[d-1] || prof[d] > c.Len() {
				return false
			}
			if d <= 7 && float64(prof[d]) > math.Pow(8, float64(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
