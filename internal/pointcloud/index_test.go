package pointcloud

import (
	"math"
	"testing"

	"qarv/internal/geom"
)

// bruteNearest is the reference implementation the index is checked against.
func bruteNearest(c *Cloud, q geom.Vec3, exclude int) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range c.Points {
		if i == exclude {
			continue
		}
		if d2 := q.Dist2(p); d2 < bestD2 {
			bestD2 = d2
			best = i
		}
	}
	if best < 0 {
		return -1, -1
	}
	return best, bestD2
}

func TestGridIndexNearestMatchesBruteForce(t *testing.T) {
	c := cubeCloud(500, 21)
	idx := NewGridIndex(c, 0)
	rng := geom.NewRNG(22)
	for n := 0; n < 100; n++ {
		q := geom.V(rng.Range(-0.2, 1.2), rng.Range(-0.2, 1.2), rng.Range(-0.2, 1.2))
		gotI, gotD2 := idx.Nearest(q)
		wantI, wantD2 := bruteNearest(c, q, -1)
		if gotI != wantI || math.Abs(gotD2-wantD2) > 1e-12 {
			t.Fatalf("query %v: got (%d, %v), want (%d, %v)", q, gotI, gotD2, wantI, wantD2)
		}
	}
	empty := NewGridIndex(&Cloud{}, 0)
	if i, d := empty.Nearest(geom.V(0, 0, 0)); i != -1 || d != -1 {
		t.Error("empty index nearest must be (-1,-1)")
	}
}

func TestGridIndexNearestExcluding(t *testing.T) {
	c := cubeCloud(200, 23)
	idx := NewGridIndex(c, 0)
	for i := 0; i < 50; i++ {
		gotI, gotD2 := idx.NearestExcluding(c.Points[i], i)
		wantI, wantD2 := bruteNearest(c, c.Points[i], i)
		if gotI != wantI || math.Abs(gotD2-wantD2) > 1e-12 {
			t.Fatalf("self-query %d: got (%d, %v), want (%d, %v)", i, gotI, gotD2, wantI, wantD2)
		}
		if gotI == i {
			t.Fatal("excluded point returned")
		}
	}
}

func TestGridIndexExplicitCellSize(t *testing.T) {
	c := cubeCloud(100, 28)
	idx := NewGridIndex(c, 0.05)
	if idx.cellSize != 0.05 {
		t.Errorf("cell size = %v", idx.cellSize)
	}
	// Queries must still be exact with a forced small cell size.
	q := geom.V(0.3, 0.3, 0.3)
	gotI, _ := idx.Nearest(q)
	wantI, _ := bruteNearest(c, q, -1)
	if gotI != wantI {
		t.Errorf("nearest with tiny cells = %d, want %d", gotI, wantI)
	}
}

// latticeCloud is an n×n×n integer lattice, listed twice so that every
// point has an exact duplicate at a higher index.
func latticeCloud(n int) *Cloud {
	c := &Cloud{}
	for rep := 0; rep < 2; rep++ {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					c.Append(geom.V(float64(x), float64(y), float64(z)), nil, nil)
				}
			}
		}
	}
	return c
}

// checkExact asserts that Nearest and NearestExcluding equal brute force
// exactly, index included, for every query.
func checkExact(t *testing.T, c *Cloud, idx *GridIndex, queries []geom.Vec3) {
	t.Helper()
	for _, q := range queries {
		gotI, gotD2 := idx.Nearest(q)
		wantI, wantD2 := bruteNearest(c, q, -1)
		if gotI != wantI || gotD2 != wantD2 {
			t.Fatalf("cell %v: Nearest(%v) = (%d, %v), want (%d, %v)", idx.cellSize, q, gotI, gotD2, wantI, wantD2)
		}
	}
	for i, p := range c.Points {
		gotI, gotD2 := idx.NearestExcluding(p, i)
		wantI, wantD2 := bruteNearest(c, p, i)
		if gotI != wantI || gotD2 != wantD2 {
			t.Fatalf("cell %v: NearestExcluding(%v, %d) = (%d, %v), want (%d, %v)", idx.cellSize, p, i, gotI, gotD2, wantI, wantD2)
		}
	}
}

func TestGridIndexExactTies(t *testing.T) {
	lattice := latticeCloud(4)
	var mid []geom.Vec3 // lattice midpoints: every query is a tie
	for x := -0.5; x <= 3.5; x++ {
		for y := -0.5; y <= 3.5; y += 2 {
			for z := -0.5; z <= 3.5; z += 0.5 {
				mid = append(mid, geom.V(x, y, z))
			}
		}
	}
	flat := &Cloud{}
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			flat.Append(geom.V(float64(x)*0.25, float64(y)*0.25, 0), nil, nil)
		}
	}
	flatQ := []geom.Vec3{geom.V(0.125, 0.125, 0), geom.V(0.6, 0.375, 1), geom.V(-3, 0.5, 0)}
	single := &Cloud{}
	single.Append(geom.V(1, 2, 3), nil, nil)
	far := []geom.Vec3{geom.V(1e6, -1e6, 3), geom.V(-50, 1.5, 1.5), geom.V(1.5, 1.5, 1e4)}
	cases := []struct {
		name    string
		c       *Cloud
		queries []geom.Vec3
	}{
		{"lattice", lattice, append(append([]geom.Vec3{}, mid...), far...)},
		{"flat", flat, append(flatQ, far...)},
		{"single", single, append([]geom.Vec3{geom.V(1, 2, 3)}, far...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cell := range []float64{0, 0.3, 100} {
				checkExact(t, tc.c, NewGridIndex(tc.c, cell), tc.queries)
			}
		})
	}
}

func TestGridIndexDefaultCellSizeTracksSurface(t *testing.T) {
	// A unit sphere's surface: the volume heuristic alone puts about 10
	// points in each occupied cell; the refinement brings it to a few.
	c := &Cloud{}
	rng := geom.NewRNG(29)
	for i := 0; i < 20000; i++ {
		v := geom.V(rng.Range(-1, 1), rng.Range(-1, 1), rng.Range(-1, 1))
		if n := v.Norm(); n > 1e-3 {
			c.Append(v.Scale(1/n), nil, nil)
		}
	}
	idx := NewGridIndex(c, 0)
	occupied := 0
	for k := 0; k+1 < len(idx.start); k++ {
		if idx.start[k+1] > idx.start[k] {
			occupied++
		}
	}
	perCell := float64(c.Len()) / float64(occupied)
	if perCell < targetPerCell/2 || perCell > 2*targetPerCell {
		t.Errorf("%.1f points per occupied cell at the default size %v", perCell, idx.cellSize)
	}
}

// TestGridIndexTableCap builds a tight cluster plus one far outlier, whose
// bounds ask a fine grid for about 10¹⁵ cells, and requires the table to
// stay within max(8·n, 2¹⁶) cells while every query stays exact.
func TestGridIndexTableCap(t *testing.T) {
	c := &Cloud{}
	rng := geom.NewRNG(36)
	for i := 0; i < 3000; i++ {
		c.Append(geom.V(rng.Range(0, 1e-3), rng.Range(0, 1e-3), rng.Range(0, 1e-3)), nil, nil)
	}
	c.Append(geom.V(1e3, -2e3, 5e2), nil, nil)
	queries := []geom.Vec3{geom.V(5e-4, 5e-4, 5e-4), geom.V(999, -1999, 499), geom.V(500, -1000, 250), geom.V(-1, 0, 0)}
	for i := 0; i < 50; i++ {
		queries = append(queries, geom.V(rng.Range(-2e-3, 3e-3), rng.Range(-2e-3, 3e-3), rng.Range(-2e-3, 3e-3)))
	}
	budget := max(8*c.Len(), minTableCells)
	for _, size := range []float64{0, 1e-9, 1e-6} {
		idx := NewGridIndex(c, size)
		if cells := idx.cells(); cells > budget || len(idx.start) != cells+1 {
			t.Errorf("cell size %v: %d cells (table %d), budget %d", size, cells, len(idx.start), budget)
		}
		if size > 0 && idx.cellSize < size {
			t.Errorf("explicit cell size %v shrank to %v", size, idx.cellSize)
		}
		checkExact(t, c, idx, queries)
	}
}

// FuzzGridIndexNearest decodes bytes into a small cloud, which may hold
// duplicates or lie flat, plus queries, and checks Nearest and
// NearestExcluding against brute force, index included.
//
// Layout: data[0] picks the scale (bits 0–1), flattens z (bit 2) and
// pushes queries far out (bit 3); data[1] is the point count; then each
// byte triple is one point or, past the count, one query, each coordinate
// a signed byte times the scale / 4.
func FuzzGridIndexNearest(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 2, 0, 0})
	f.Add([]byte{1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2})                   // all duplicates
	f.Add([]byte{4, 5, 0, 0, 9, 4, 0, 7, 0, 4, 3, 4, 4, 1, 9, 9, 9, 2, 2, 5}) // flat
	f.Add([]byte{10, 2, 0, 0, 0, 127, 127, 127, 64, 64, 64, 128, 0, 0})       // far queries
	f.Add([]byte{3, 1, 5, 5, 5, 0, 0, 0})                                     // single point
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		scale := [4]float64{1, 1e-3, 1e3, 0.37}[data[0]&3]
		flat, far := data[0]&4 != 0, data[0]&8 != 0
		npts := int(data[1])%64 + 1
		c := &Cloud{}
		var queries []geom.Vec3
		for i := 2; i+3 <= len(data) && len(queries) < 64; i += 3 {
			v := geom.V(float64(int8(data[i])), float64(int8(data[i+1])), float64(int8(data[i+2]))).Scale(scale / 4)
			if flat {
				v.Z = 0
			}
			if c.Len() < npts {
				c.Append(v, nil, nil)
				continue
			}
			if far {
				v = v.Scale(64)
			}
			queries = append(queries, v)
		}
		if c.Len() == 0 {
			return
		}
		idx := NewGridIndex(c, 0)
		for _, q := range append(queries, c.Points...) {
			gotI, gotD2 := idx.Nearest(q)
			wantI, wantD2 := bruteNearest(c, q, -1)
			if gotI != wantI || gotD2 != wantD2 {
				t.Fatalf("Nearest(%v) = (%d, %v), want (%d, %v)", q, gotI, gotD2, wantI, wantD2)
			}
		}
		for i, p := range c.Points {
			gotI, gotD2 := idx.NearestExcluding(p, i)
			wantI, wantD2 := bruteNearest(c, p, i)
			if gotI != wantI || gotD2 != wantD2 {
				t.Fatalf("NearestExcluding(%v, %d) = (%d, %v), want (%d, %v)", p, i, gotI, gotD2, wantI, wantD2)
			}
		}
	})
}
