package pointcloud

import (
	"math"

	"qarv/internal/geom"
)

// GridIndex is a uniform-grid spatial index over a cloud, supporting exact
// nearest-neighbour queries. A grid beats a k-d tree for the near-uniform
// surface densities of voxelized body scans and keeps the implementation
// dependency-free.
//
// Layout: the points are copied in cell order, each with its original
// index, and a dense prefix table over every cell of the grid's
// dims[0]·dims[1]·dims[2] gives cell k the points pts[start[k]:start[k+1]],
// k being the packed key x·dims[1]·dims[2] + y·dims[2] + z. Within a cell,
// points keep their original order. A query scans its own cell, then the
// shells of growing Chebyshev rings around it, skipping every cell whose
// box is already farther than the best distance found.
//
// Cell size: with cellSize ≤ 0, NewGridIndex starts from the bounding-
// volume heuristic (about two points per cell were the box filled; 1 for
// a flat or empty box), coarsened if need be to at most 8 grid cells per
// point. It then counts the cells the cloud occupies at that size and
// refines once, scaling the size by √(targetPerCell / points per occupied
// cell): a scanned body is a surface, whose occupied cells scale as s⁻²,
// not a filled volume. Every size, explicit or not, is then doubled until
// the grid has at most max(8·n, 2¹⁶) cells, which bounds the table at
// 32 bytes per point (256 KB for small clouds). A body capture at the
// default size needs about 2.3 cells per point.
//
// Ties: among equidistant points a query returns the lowest original
// index, so every query equals a brute-force scan of the cloud in index
// order.
//
// A GridIndex is read-only after construction and safe for concurrent
// queries.
type GridIndex struct {
	cellSize float64
	inv      float64 // 1 / cellSize
	origin   geom.Vec3
	dims     [3]int      // cells per axis over the cloud's bounds
	start    []int32     // cell k holds pts[start[k]:start[k+1]]
	pts      []geom.Vec3 // points in cell order
	ids      []int32     // original index of each entry of pts
}

const (
	// targetPerCell is the occupied-cell density the default cell size
	// aims for: enough points that a query's own cell usually yields a
	// candidate, few enough that scanning a neighbour cell stays cheap.
	targetPerCell = 4
	// minTableCells is the cell budget of a small cloud's table; a
	// larger cloud gets 8 cells per point.
	minTableCells = 1 << 16
	// maxCellsPerAxis clamps an axis's cell count while a size is being
	// tried, so that the product of the three cannot overflow.
	maxCellsPerAxis = 1 << 20
	// boxSlack widens the conservative cell-box distance bound: a point is
	// assigned its cell by a rounded floor((p − origin)/cellSize), so it
	// can sit a few ulps outside the cell's exact box, and the search must
	// still never skip it.
	boxSlack = 1e-9
)

// NewGridIndex builds an index over cloud. cellSize ≤ 0 picks a size from
// the cloud's bounds and occupancy (see GridIndex); a positive cellSize is
// used as given unless the grid would exceed its cell budget.
func NewGridIndex(cloud *Cloud, cellSize float64) *GridIndex {
	g := &GridIndex{}
	n := cloud.Len()
	b := finiteBounds(cloud.Points)
	g.origin = b.Min
	if cellSize <= 0 {
		cellSize = g.defaultCellSize(cloud.Points, b)
	}
	g.setCellSize(cellSize, b, n)
	for budget := max(8*n, minTableCells); g.cells() > budget; {
		g.setCellSize(2*g.cellSize, b, n)
	}

	// Counting build: one pass counts each cell's points, prefix sums
	// turn the counts into the start table, and a scatter copies the
	// points in cell order. Points within a cell keep their original
	// order.
	keys := make([]int32, n)
	g.start = make([]int32, g.cells()+1)
	for i, p := range cloud.Points {
		k := int32(g.key(p))
		keys[i] = k
		g.start[k+1]++
	}
	for k := 1; k < len(g.start); k++ {
		g.start[k] += g.start[k-1]
	}
	g.pts = make([]geom.Vec3, n)
	g.ids = make([]int32, n)
	for i, p := range cloud.Points {
		// start[k] serves as cell k's write cursor, ending at the old
		// start[k+1]; a shift afterwards restores the table.
		at := g.start[keys[i]]
		g.start[keys[i]]++
		g.pts[at] = p
		g.ids[at] = int32(i)
	}
	copy(g.start[1:], g.start)
	g.start[0] = 0
	return g
}

// finiteBounds is the box of the finite coordinates of pts. It skips
// Cloud.Bounds' NaN and signed-zero handling, which makes it several times
// cheaper; a non-finite coordinate's cell is clamped into the grid, and
// its point is never strictly nearest to anything.
func finiteBounds(pts []geom.Vec3) geom.AABB {
	inf := math.Inf(1)
	b := geom.AABB{Min: geom.V(inf, inf, inf), Max: geom.V(-inf, -inf, -inf)}
	for _, p := range pts {
		widen(p.X, &b.Min.X, &b.Max.X)
		widen(p.Y, &b.Min.Y, &b.Max.Y)
		widen(p.Z, &b.Min.Z, &b.Max.Z)
	}
	return b
}

func widen(v float64, lo, hi *float64) {
	if v < *lo && v > math.Inf(-1) {
		*lo = v
	}
	if v > *hi && v < math.Inf(1) {
		*hi = v
	}
}

// defaultCellSize is the GridIndex cell-size rule. The coarsened starting
// grid has at most 8 cells per point, so its occupancy fits a small
// bitset.
func (g *GridIndex) defaultCellSize(pts []geom.Vec3, b geom.AABB) float64 {
	n := len(pts)
	if n == 0 {
		return 1
	}
	s := 1.0
	if !b.IsEmpty() {
		// Aim for ~2 points per cell over the bounding volume.
		s = math.Cbrt(b.Volume() / math.Max(float64(n)/2, 1))
		if !(s > 0) {
			s = 1
		}
	}
	for {
		g.setCellSize(s, b, n)
		if g.cells() <= 8*n {
			break
		}
		s *= 2
	}
	occupied := make([]uint64, (g.cells()+63)/64)
	count := 0
	for _, p := range pts {
		k := g.key(p)
		if bit := uint64(1) << (k % 64); occupied[k/64]&bit == 0 {
			occupied[k/64] |= bit
			count++
		}
	}
	return s * math.Sqrt(targetPerCell*float64(count)/float64(n))
}

// setCellSize fixes the cell edge and the grid's per-axis cell counts over
// the bounds b of n points.
func (g *GridIndex) setCellSize(s float64, b geom.AABB, n int) {
	g.cellSize = s
	g.inv = 1 / s
	g.dims = [3]int{1, 1, 1}
	if n > 0 {
		g.dims = [3]int{
			clampCell((b.Max.X-g.origin.X)*g.inv, 0) + 1,
			clampCell((b.Max.Y-g.origin.Y)*g.inv, 0) + 1,
			clampCell((b.Max.Z-g.origin.Z)*g.inv, 0) + 1,
		}
	}
}

// cells is the number of cells in the grid.
func (g *GridIndex) cells() int { return g.dims[0] * g.dims[1] * g.dims[2] }

// clampCell floors a grid coordinate into [0, dim) when dim > 0, and into
// [0, maxCellsPerAxis] while dim is not yet known. Every point of the
// cloud floors into the grid; the clamp is for queries outside it and for
// non-finite coordinates.
func clampCell(u float64, dim int) int {
	hi := maxCellsPerAxis
	if dim > 0 {
		hi = dim - 1
	}
	if !(u >= 0) {
		return 0
	}
	if u >= float64(hi) {
		return hi
	}
	return int(u)
}

// key returns the packed key of p's cell.
func (g *GridIndex) key(p geom.Vec3) uint64 {
	x := clampCell((p.X-g.origin.X)*g.inv, g.dims[0])
	y := clampCell((p.Y-g.origin.Y)*g.inv, g.dims[1])
	z := clampCell((p.Z-g.origin.Z)*g.inv, g.dims[2])
	return g.packed(x, y, z)
}

func (g *GridIndex) packed(x, y, z int) uint64 {
	return (uint64(x)*uint64(g.dims[1])+uint64(y))*uint64(g.dims[2]) + uint64(z)
}

// Nearest returns the index of the point closest to q and its squared
// distance; among equidistant points it returns the lowest index. It
// returns (-1, -1) for an empty cloud.
func (g *GridIndex) Nearest(q geom.Vec3) (int, float64) {
	return g.NearestExcluding(q, -1)
}

// NearestExcluding is Nearest but skips the point at index exclude,
// which makes self-queries ("nearest other point") possible.
func (g *GridIndex) NearestExcluding(q geom.Vec3, exclude int) (int, float64) {
	s := search{q: q, exclude: int32(exclude), best: -1, bestD2: math.Inf(1)}
	if exclude < 0 || exclude >= len(g.ids) {
		s.exclude = -1
	}
	g.walk(&s)
	if s.best < 0 {
		return -1, -1
	}
	return int(s.best), s.bestD2
}

// search is one query's state: the best point found so far.
type search struct {
	q       geom.Vec3
	exclude int32
	best    int32
	bestD2  float64
}

func (s *search) scan(pts []geom.Vec3, ids []int32) {
	for j, p := range pts {
		d2 := s.q.Dist2(p)
		if (d2 < s.bestD2 || (d2 == s.bestD2 && ids[j] < s.best)) && ids[j] != s.exclude {
			s.best, s.bestD2 = ids[j], d2
		}
	}
}

// walk visits the grid's cells in Chebyshev rings around q's cell, scanning
// only the cells of each ring's shell whose box could hold a point no
// farther than the best found so far, and stops once no unvisited cell can.
//
// Distance bounds are taken in grid units from u = (q − origin)/cellSize:
// a cell k on one axis is at least gap = max(0, k − u, u − (k+1)) away,
// less a slack covering the rounding of both u and the points' cell
// assignment, and the squared sum is scaled by (1 − boxSlack) so that a
// skipped cell's points are all strictly farther than the bound.
func (g *GridIndex) walk(s *search) {
	if len(g.ids) == 0 {
		return
	}
	q := s.q
	u := [3]float64{
		(q.X - g.origin.X) * g.inv,
		(q.Y - g.origin.Y) * g.inv,
		(q.Z - g.origin.Z) * g.inv,
	}
	var c [3]int
	maxRing := 0
	slack := 2.0
	for a := 0; a < 3; a++ {
		c[a] = clampCell(u[a], g.dims[a])
		maxRing = max(maxRing, c[a], g.dims[a]-1-c[a])
		slack += math.Abs(u[a]) + float64(g.dims[a])
	}
	slack *= boxSlack
	scale := g.cellSize * g.cellSize * (1 - boxSlack)
	gap := func(a, k int) float64 {
		d := float64(k) - u[a]
		if e := u[a] - float64(k+1); e > d {
			d = e
		}
		if d -= slack; d > 0 {
			return d
		}
		return 0
	}
	cell := func(x, y, z int) {
		k := g.packed(x, y, z)
		if lo, hi := g.start[k], g.start[k+1]; lo < hi {
			s.scan(g.pts[lo:hi], g.ids[lo:hi])
		}
	}
	cell(c[0], c[1], c[2])
	for r := 1; r <= maxRing; r++ {
		if lb := float64(r-1) - slack; lb > 0 && lb*lb*scale > s.bestD2 {
			return // every unvisited cell is at least r−1 cells away
		}
		for x := max(c[0]-r, 0); x <= min(c[0]+r, g.dims[0]-1); x++ {
			gx := gap(0, x)
			lx := gx * gx
			if lx*scale > s.bestD2 {
				continue
			}
			xShell := x == c[0]-r || x == c[0]+r
			for y := max(c[1]-r, 0); y <= min(c[1]+r, g.dims[1]-1); y++ {
				gy := gap(1, y)
				lxy := lx + gy*gy
				if lxy*scale > s.bestD2 {
					continue
				}
				if xShell || y == c[1]-r || y == c[1]+r {
					for z := max(c[2]-r, 0); z <= min(c[2]+r, g.dims[2]-1); z++ {
						if gz := gap(2, z); (lxy+gz*gz)*scale <= s.bestD2 {
							cell(x, y, z)
						}
					}
					continue
				}
				// Interior of the ring's x and y ranges: only the two
				// z faces belong to this shell.
				for _, z := range [2]int{c[2] - r, c[2] + r} {
					if z < 0 || z >= g.dims[2] {
						continue
					}
					if gz := gap(2, z); (lxy+gz*gz)*scale <= s.bestD2 {
						cell(x, y, z)
					}
				}
			}
		}
	}
}
