package quality

import (
	"errors"
	"math"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
)

func grid(n int, jitter float64, seed uint64) *pointcloud.Cloud {
	rng := geom.NewRNG(seed)
	c := &pointcloud.Cloud{Colors: []pointcloud.Color{}}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			col := pointcloud.Color{R: uint8(40 + x*3), G: uint8(40 + y*3), B: 128}
			p := geom.V(float64(x)/float64(n), float64(y)/float64(n), 0)
			if jitter > 0 {
				p = p.Add(geom.V(rng.NormMeanStd(0, jitter), rng.NormMeanStd(0, jitter), 0))
			}
			c.Append(p, &col, nil)
		}
	}
	return c
}

func TestCompareGeometryIdentical(t *testing.T) {
	c := grid(20, 0, 1)
	rep, err := CompareGeometry(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MSE != 0 || rep.Hausdorff != 0 || rep.MeanDist != 0 {
		t.Errorf("identical clouds: %+v", rep)
	}
	if !math.IsInf(rep.PSNR, 1) {
		t.Errorf("identical PSNR = %v, want +Inf", rep.PSNR)
	}
}

func TestCompareGeometryDegradesWithDistortion(t *testing.T) {
	ref := grid(25, 0, 2)
	small := grid(25, 0.002, 3)
	large := grid(25, 0.02, 4)
	repSmall, err := CompareGeometry(ref, small)
	if err != nil {
		t.Fatal(err)
	}
	repLarge, err := CompareGeometry(ref, large)
	if err != nil {
		t.Fatal(err)
	}
	if repSmall.MSE >= repLarge.MSE {
		t.Errorf("MSE not monotone in distortion: %v vs %v", repSmall.MSE, repLarge.MSE)
	}
	if repSmall.PSNR <= repLarge.PSNR {
		t.Errorf("PSNR not monotone: %v vs %v", repSmall.PSNR, repLarge.PSNR)
	}
	if repSmall.Hausdorff >= repLarge.Hausdorff {
		t.Errorf("Hausdorff not monotone: %v vs %v", repSmall.Hausdorff, repLarge.Hausdorff)
	}
}

func TestCompareGeometrySymmetricCatchesSubsets(t *testing.T) {
	// A proper subset has zero test->ref error; the symmetric metric must
	// still flag the missing coverage via the ref->test direction.
	ref := grid(20, 0, 5)
	subset := &pointcloud.Cloud{Points: ref.Points[:5]}
	rep, err := CompareGeometry(ref, subset)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MSE == 0 || rep.Hausdorff == 0 {
		t.Errorf("subset reported as perfect: %+v", rep)
	}
}

func TestCompareGeometryEmpty(t *testing.T) {
	c := grid(3, 0, 6)
	if _, err := CompareGeometry(c, &pointcloud.Cloud{}); !errors.Is(err, ErrEmptyCloud) {
		t.Errorf("empty test: %v", err)
	}
	if _, err := CompareGeometry(&pointcloud.Cloud{}, c); !errors.Is(err, ErrEmptyCloud) {
		t.Errorf("empty ref: %v", err)
	}
}

func TestColorPSNR(t *testing.T) {
	ref := grid(15, 0, 7)
	r := NewReference(ref)
	if v, err := r.ColorPSNR(ref); err != nil || !math.IsInf(v, 1) {
		t.Errorf("identical colors: %v, %v", v, err)
	}
	// Wash out colors: PSNR must drop to a finite value.
	noisy := &pointcloud.Cloud{Points: ref.Points, Colors: append([]pointcloud.Color(nil), ref.Colors...)}
	for i := range noisy.Colors {
		noisy.Colors[i].R += 40
	}
	v, err := r.ColorPSNR(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(v, 1) || v > 40 || v < 5 {
		t.Errorf("shifted colors PSNR = %v", v)
	}
	bare := &pointcloud.Cloud{Points: ref.Points}
	if _, err := r.ColorPSNR(bare); !errors.Is(err, ErrNoColors) {
		t.Errorf("colorless test: %v", err)
	}
}

func TestPointRatio(t *testing.T) {
	ref := grid(10, 0, 8)
	half := &pointcloud.Cloud{}
	for i := 0; i < ref.Len(); i += 2 {
		half.Append(ref.Points[i], nil, nil)
	}
	r, err := PointRatio(ref, half)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0.4 || r > 0.6 {
		t.Errorf("ratio = %v, want ~0.5", r)
	}
	if _, err := PointRatio(&pointcloud.Cloud{}, ref); !errors.Is(err, ErrEmptyCloud) {
		t.Errorf("empty ref: %v", err)
	}
}

// noisySphere is a 4k-point unit sphere with radial noise and per-point
// colors, octree-built at depth 9.
func noisySphere(t *testing.T) (*pointcloud.Cloud, *octree.Octree) {
	t.Helper()
	rng := geom.NewRNG(9)
	cloud := &pointcloud.Cloud{Colors: []pointcloud.Color{}}
	for i := 0; i < 4000; i++ {
		v := rng.UnitSphere()
		col := pointcloud.Color{R: uint8(128 + 100*v.X), G: uint8(128 + 100*v.Y), B: uint8(128 + 100*v.Z)}
		cloud.Append(v.Scale(1+0.02*rng.Norm()), &col, nil)
	}
	o, err := octree.Build(cloud, 9)
	if err != nil {
		t.Fatal(err)
	}
	return cloud, o
}

func TestPSNRIncreasesWithOctreeDepth(t *testing.T) {
	// The substantive Fig. 1 property: deeper LOD ⇒ higher geometry PSNR.
	cloud, o := noisySphere(t)
	prev := -math.MaxFloat64
	for _, d := range []int{3, 5, 7, 9} {
		lod, err := o.LOD(d, octree.LODCentroid)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := CompareGeometry(cloud, lod)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PSNR <= prev {
			t.Errorf("PSNR not increasing at depth %d: %v <= %v", d, rep.PSNR, prev)
		}
		prev = rep.PSNR
	}
}

// bruteNearest scans every point of c for the one nearest q, keeping the
// lowest index among equidistant points.
func bruteNearest(c *pointcloud.Cloud, q geom.Vec3) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range c.Points {
		if d2 := q.Dist2(p); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, bestD2
}

// bruteGeometry is CompareGeometry by O(n·m) scans: the D1 definition
// with no index at all.
func bruteGeometry(ref, test *pointcloud.Cloud) GeometryReport {
	directed := func(from, to *pointcloud.Cloud) (mse, mean, haus float64) {
		for _, p := range from.Points {
			_, d2 := bruteNearest(to, p)
			mse += d2
			mean += math.Sqrt(d2)
			haus = math.Max(haus, math.Sqrt(d2))
		}
		n := float64(from.Len())
		return mse / n, mean / n, haus
	}
	mseA, meanA, hausA := directed(test, ref)
	mseB, meanB, hausB := directed(ref, test)
	mse := math.Max(mseA, mseB)
	peak := ref.Bounds().Size().Norm()
	psnr := math.Inf(1)
	if mse > 0 {
		psnr = 10 * math.Log10(peak*peak/mse)
	}
	return GeometryReport{MSE: mse, PSNR: psnr, Hausdorff: math.Max(hausA, hausB), MeanDist: math.Max(meanA, meanB)}
}

// bruteColorPSNR is Reference.ColorPSNR by O(n·m) scans.
func bruteColorPSNR(ref, test *pointcloud.Cloud) float64 {
	var mse float64
	for i, p := range test.Points {
		j, _ := bruteNearest(ref, p)
		d := test.Colors[i].Gray() - ref.Colors[j].Gray()
		mse += d * d
	}
	return 10 * math.Log10(255*255/(mse/float64(test.Len())))
}

func TestCompareGeometryMatchesBruteForceBitForBit(t *testing.T) {
	// The reports depend only on exact nearest distances, so the indexed
	// metrics must equal the brute-force ones bit for bit, whether the
	// reference is rebuilt per call or shared across the ladder.
	cloud, o := noisySphere(t)
	ref := NewReference(cloud)
	for d := 3; d <= 9; d++ {
		lod, err := o.LOD(d, octree.LODCentroid)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteGeometry(cloud, lod)
		got, err := CompareGeometry(cloud, lod)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := ref.Geometry(lod)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || shared != want {
			t.Errorf("depth %d: CompareGeometry %+v, Reference.Geometry %+v, brute force %+v", d, got, shared, want)
		}
		col, err := ref.ColorPSNR(lod)
		if err != nil {
			t.Fatal(err)
		}
		if wantCol := bruteColorPSNR(cloud, lod); col != wantCol {
			t.Errorf("depth %d: ColorPSNR %v, brute force %v", d, col, wantCol)
		}
	}
}

func TestUtilityModelsMonotone(t *testing.T) {
	profile := []int{1, 8, 60, 420, 2500, 9000, 20000, 31000, 36000}
	logU, err := NewLogPointUtility(profile)
	if err != nil {
		t.Fatal(err)
	}
	normU, err := NewNormalizedPointUtility(profile)
	if err != nil {
		t.Fatal(err)
	}
	psnrU, err := NewPSNRUtility([]float64{10, 14, 19, 25, 31, 38, 46, 55, 65}, 100)
	if err != nil {
		t.Fatal(err)
	}
	linU := &LinearDepthUtility{MaxDepth: 8}
	for _, m := range []UtilityModel{logU, normU, psnrU, linU} {
		prev := -math.MaxFloat64
		for d := 0; d <= 8; d++ {
			u := m.Utility(d)
			if u < prev {
				t.Errorf("%s not monotone at depth %d: %v < %v", m.Name(), d, u, prev)
			}
			prev = u
		}
		// Clamping: out-of-range depths must not panic and must clamp.
		if m.Utility(-5) > m.Utility(0) {
			t.Errorf("%s: negative depth exceeds depth 0", m.Name())
		}
		if m.Utility(100) < m.Utility(8) {
			t.Errorf("%s: overflow depth below max", m.Name())
		}
	}
}

func TestUtilityModelValidation(t *testing.T) {
	if _, err := NewLogPointUtility(nil); err == nil {
		t.Error("empty profile must error")
	}
	if _, err := NewLogPointUtility([]int{5, 3}); err == nil {
		t.Error("non-monotone profile must error")
	}
	if _, err := NewLogPointUtility([]int{-1}); err == nil {
		t.Error("negative occupancy must error")
	}
	if _, err := NewNormalizedPointUtility([]int{0, 0}); err == nil {
		t.Error("zero peak must error")
	}
	if _, err := NewPSNRUtility(nil, 0); err == nil {
		t.Error("empty PSNR profile must error")
	}
	if _, err := NewPSNRUtility([]float64{-2}, 0); err == nil {
		t.Error("negative PSNR must error")
	}
	// Inf entries are capped, not rejected.
	u, err := NewPSNRUtility([]float64{10, math.Inf(1)}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if u.Utility(1) != 80 {
		t.Errorf("capped Inf = %v, want 80", u.Utility(1))
	}
}

func TestLogUtilityDiminishingReturns(t *testing.T) {
	profile := []int{1, 10, 100, 1000, 10000}
	u, err := NewLogPointUtility(profile)
	if err != nil {
		t.Fatal(err)
	}
	// The per-depth table holds exactly log2(1 + points).
	for d, points := range profile {
		if got, want := u.Utility(d), math.Log2(1+float64(points)); got != want {
			t.Errorf("Utility(%d) = %v, want log2(1+%d) = %v", d, got, points, want)
		}
	}
	// Equal point-count multiplications yield (approximately) equal utility
	// increments — the log law.
	d1 := u.Utility(2) - u.Utility(1)
	d2 := u.Utility(4) - u.Utility(3)
	// The +1 offset perturbs small counts slightly; allow a loose band.
	if math.Abs(d1-d2) > 0.2 {
		t.Errorf("log increments differ: %v vs %v", d1, d2)
	}
}
