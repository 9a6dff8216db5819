// Package quality quantifies AR visualization quality. It provides (a) the
// geometric/color fidelity metrics used to report Fig. 1 (point counts,
// point-to-point PSNR, Hausdorff distance, color PSNR) and (b) the utility
// models pa(d) the Lyapunov controller maximizes — the paper's "quality of
// AR visualization with the Octree depth at d(τ)".
package quality

import (
	"errors"
	"fmt"
	"math"

	"qarv/internal/pointcloud"
)

// Metric errors; matchable with errors.Is.
var (
	ErrEmptyCloud = errors.New("quality: empty cloud")
	ErrNoColors   = errors.New("quality: cloud has no colors")
)

// GeometryReport summarizes geometric fidelity of a degraded cloud against
// a reference cloud.
type GeometryReport struct {
	// MSE is the symmetric mean squared point-to-point (D1) distance.
	MSE float64
	// PSNR is the geometry PSNR in dB with the reference bounding-box
	// diagonal as peak, the convention of MPEG point-cloud quality
	// evaluation. +Inf for identical clouds.
	PSNR float64
	// Hausdorff is the symmetric Hausdorff distance.
	Hausdorff float64
	// MeanDist is the symmetric mean point-to-point distance.
	MeanDist float64
}

// Reference is a reference cloud prepared for repeated comparison: its
// nearest-neighbour index and PSNR peak are built once and shared by every
// Geometry and ColorPSNR call, so a depth ladder pays for them once. It is
// read-only after construction and safe for concurrent use.
type Reference struct {
	cloud *pointcloud.Cloud
	idx   *pointcloud.GridIndex
	peak  float64
}

// NewReference prepares ref for comparison.
func NewReference(ref *pointcloud.Cloud) *Reference {
	return &Reference{
		cloud: ref,
		idx:   pointcloud.NewGridIndex(ref, 0),
		peak:  ref.Bounds().Size().Norm(),
	}
}

// CompareGeometry computes a GeometryReport of test against ref using
// nearest-neighbour correspondences in both directions.
func CompareGeometry(ref, test *pointcloud.Cloud) (GeometryReport, error) {
	return NewReference(ref).Geometry(test)
}

// Geometry computes a GeometryReport of test against the reference using
// nearest-neighbour correspondences in both directions. The report
// depends only on nearest squared distances, summed in point order, so it
// is the same for any exact nearest-neighbour search.
func (r *Reference) Geometry(test *pointcloud.Cloud) (GeometryReport, error) {
	if r.cloud.Len() == 0 || test.Len() == 0 {
		return GeometryReport{}, ErrEmptyCloud
	}
	testIdx := pointcloud.NewGridIndex(test, 0)

	mseA, meanA, hausA := directedStats(test, r.idx)      // test -> ref
	mseB, meanB, hausB := directedStats(r.cloud, testIdx) // ref -> test

	mse := math.Max(mseA, mseB)
	psnr := math.Inf(1)
	if mse > 0 {
		psnr = 10 * math.Log10(r.peak*r.peak/mse)
	}
	return GeometryReport{
		MSE:       mse,
		PSNR:      psnr,
		Hausdorff: math.Max(hausA, hausB),
		MeanDist:  math.Max(meanA, meanB),
	}, nil
}

func directedStats(from *pointcloud.Cloud, toIdx *pointcloud.GridIndex) (mse, mean, haus float64) {
	for _, p := range from.Points {
		_, d2 := toIdx.Nearest(p)
		mse += d2
		d := math.Sqrt(d2)
		mean += d
		if d > haus {
			haus = d
		}
	}
	n := float64(from.Len())
	return mse / n, mean / n, haus
}

// ColorPSNR computes the luma PSNR of test against the reference through
// nearest-neighbour correspondence (test -> reference); equidistant
// reference points resolve to the lowest index. Returns +Inf when the
// corresponding lumas match exactly.
func (r *Reference) ColorPSNR(test *pointcloud.Cloud) (float64, error) {
	ref := r.cloud
	if ref.Len() == 0 || test.Len() == 0 {
		return 0, ErrEmptyCloud
	}
	if !ref.HasColors() || !test.HasColors() {
		return 0, ErrNoColors
	}
	var mse float64
	for i, p := range test.Points {
		j, _ := r.idx.Nearest(p)
		d := test.Colors[i].Gray() - ref.Colors[j].Gray()
		mse += d * d
	}
	mse /= float64(test.Len())
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// PointRatio returns |test| / |ref|, the crude density-based quality proxy
// the paper's Fig. 1 caption appeals to ("the bigger the number of PCs
// introduces better visualization quality").
func PointRatio(ref, test *pointcloud.Cloud) (float64, error) {
	if ref.Len() == 0 {
		return 0, ErrEmptyCloud
	}
	return float64(test.Len()) / float64(ref.Len()), nil
}

// UtilityModel maps an Octree depth to the per-slot quality pa(d) that the
// drift-plus-penalty controller trades against backlog. Implementations
// must be strictly increasing in depth over their configured range.
type UtilityModel interface {
	// Utility returns pa(d). Depths outside the configured range clamp.
	Utility(depth int) float64
	// Name identifies the model in traces and experiment output.
	Name() string
}

// LogPointUtility is the default model: pa(d) = log2(1 + points(d)),
// the diminishing-returns quality law standard in rate–quality control
// (each doubling of rendered points adds one quality unit). points(d) is
// the cloud's occupancy profile. pa(d) is tabulated per depth at
// construction, so Utility is a lookup.
type LogPointUtility struct {
	util []float64 // util[d] = log2(1 + points(d))
}

var _ UtilityModel = (*LogPointUtility)(nil)

// NewLogPointUtility builds the model from an occupancy profile indexed by
// depth (profile[d] = rendered points at depth d).
func NewLogPointUtility(profile []int) (*LogPointUtility, error) {
	p, err := toFloatProfile(profile)
	if err != nil {
		return nil, err
	}
	for d, points := range p {
		p[d] = math.Log2(1 + points)
	}
	return &LogPointUtility{util: p}, nil
}

// Utility implements UtilityModel.
func (u *LogPointUtility) Utility(depth int) float64 {
	return u.util[clampDepth(depth, len(u.util))]
}

// Name implements UtilityModel.
func (u *LogPointUtility) Name() string { return "log-points" }

// LinearDepthUtility is the simplest model: pa(d) = d. It reproduces the
// paper's qualitative setup where quality is identified with depth itself.
type LinearDepthUtility struct {
	// MaxDepth clamps the input range.
	MaxDepth int
}

var _ UtilityModel = (*LinearDepthUtility)(nil)

// Utility implements UtilityModel.
func (u *LinearDepthUtility) Utility(depth int) float64 {
	if depth < 0 {
		return 0
	}
	if u.MaxDepth > 0 && depth > u.MaxDepth {
		return float64(u.MaxDepth)
	}
	return float64(depth)
}

// Name implements UtilityModel.
func (u *LinearDepthUtility) Name() string { return "linear-depth" }

// PSNRUtility uses measured geometry PSNR per depth: pa(d) = PSNR(LOD(d))
// against the full-resolution cloud, in dB (capped for identical clouds).
type PSNRUtility struct {
	psnr []float64
}

var _ UtilityModel = (*PSNRUtility)(nil)

// NewPSNRUtility builds the model from per-depth PSNR measurements.
// +Inf entries (identical clouds) are capped at cap dB.
func NewPSNRUtility(psnrByDepth []float64, capDB float64) (*PSNRUtility, error) {
	if len(psnrByDepth) == 0 {
		return nil, errors.New("quality: empty PSNR profile")
	}
	if capDB <= 0 {
		capDB = 100
	}
	p := make([]float64, len(psnrByDepth))
	for i, v := range psnrByDepth {
		if math.IsInf(v, 1) || v > capDB {
			v = capDB
		}
		if v < 0 {
			return nil, fmt.Errorf("quality: negative PSNR %v at depth %d", v, i)
		}
		p[i] = v
	}
	return &PSNRUtility{psnr: p}, nil
}

// Utility implements UtilityModel.
func (u *PSNRUtility) Utility(depth int) float64 {
	return u.psnr[clampDepth(depth, len(u.psnr))]
}

// Name implements UtilityModel.
func (u *PSNRUtility) Name() string { return "psnr" }

// NormalizedPointUtility is pa(d) = points(d)/points(maxDepth) ∈ (0,1]:
// quality proportional to rendered density.
type NormalizedPointUtility struct {
	profile []float64
	peak    float64
}

var _ UtilityModel = (*NormalizedPointUtility)(nil)

// NewNormalizedPointUtility builds the model from an occupancy profile.
func NewNormalizedPointUtility(profile []int) (*NormalizedPointUtility, error) {
	p, err := toFloatProfile(profile)
	if err != nil {
		return nil, err
	}
	peak := p[len(p)-1]
	if peak <= 0 {
		return nil, errors.New("quality: profile peak is zero")
	}
	return &NormalizedPointUtility{profile: p, peak: peak}, nil
}

// Utility implements UtilityModel.
func (u *NormalizedPointUtility) Utility(depth int) float64 {
	return u.profile[clampDepth(depth, len(u.profile))] / u.peak
}

// Name implements UtilityModel.
func (u *NormalizedPointUtility) Name() string { return "normalized-points" }

func toFloatProfile(profile []int) ([]float64, error) {
	if len(profile) == 0 {
		return nil, errors.New("quality: empty occupancy profile")
	}
	out := make([]float64, len(profile))
	for i, v := range profile {
		if v < 0 {
			return nil, fmt.Errorf("quality: negative occupancy %d at depth %d", v, i)
		}
		if i > 0 && v < profile[i-1] {
			return nil, fmt.Errorf("quality: occupancy profile not monotone at depth %d", i)
		}
		out[i] = float64(v)
	}
	return out, nil
}

func clampDepth(d, n int) int {
	if d < 0 {
		return 0
	}
	if d >= n {
		return n - 1
	}
	return d
}
