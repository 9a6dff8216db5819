package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"qarv/internal/content"
	"qarv/internal/octree"
	"qarv/internal/pointcloud"
	"qarv/internal/quality"
	"qarv/internal/render"
	"qarv/internal/synthetic"
)

// content-build: uncached content.Build of two synthetic presets at the
// default configuration, once with geometry quality and once with view
// quality. One operation is one asset's two builds.
const (
	contentSamples      = 120_000 // content.Config's default
	contentCaptureDepth = 10      // content.Config's default
	contentPSNRCap      = 100     // content.Config's default
	contentViewSize     = 320     // content.View's default viewport
)

var contentPresets = []string{"longdress", "soldier"}

// contentAsset is one preset's occupancy ladder, measured at set-up from
// an independent capture and octree build.
type contentAsset struct {
	name   string
	points []int
}

// contentSeed is the seed content.Config resolves: zero takes 1.
func contentSeed(seed uint64) uint64 { return max(seed, 1) }

// setupContentBuild captures each preset and builds its octree.
func setupContentBuild(seed uint64) ([]contentAsset, error) {
	assets := make([]contentAsset, len(contentPresets))
	for i, name := range contentPresets {
		ch, err := synthetic.ByName(name)
		if err != nil {
			return nil, err
		}
		cloud, err := synthetic.Generate(synthetic.Config{
			Character: ch, SamplesTarget: contentSamples, CaptureDepth: contentCaptureDepth, Seed: seed,
		}, synthetic.Pose{})
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", name, err)
		}
		tree, err := octree.Build(cloud, contentCaptureDepth)
		if err != nil {
			return nil, fmt.Errorf("octree %s: %w", name, err)
		}
		assets[i] = contentAsset{name: name, points: tree.Profile()}
	}
	return assets, nil
}

// checkProfile verifies one built profile against the set-up occupancy
// ladder and, when given, the content.Load result of the same config.
func checkProfile(p *content.Profile, as contentAsset, ref *content.Profile) []string {
	var bad []string
	b := p.Bytes()
	for d := 1; d < len(b); d++ {
		if b[d] <= b[d-1] {
			bad = append(bad, fmt.Sprintf("byte ladder not strictly increasing at depth %d", d))
			break
		}
	}
	if !slices.Equal(p.Points(), as.points) {
		bad = append(bad, "occupancy ladder differs from an independent capture and octree build")
	}
	if ref != nil && (!slices.Equal(b, ref.Bytes()) || !slices.Equal(p.PSNR(), ref.PSNR())) {
		bad = append(bad, "profile differs from content.Load of the same config")
	}
	return bad
}

// runContentBuild is the untraced content-build workload.
func runContentBuild(rc runConfig) (*outcome, error) {
	seed := contentSeed(rc.seed)
	assets, setups, err := repeatSetup(func() ([]contentAsset, error) { return setupContentBuild(seed) }, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: setups}
	refs := make(map[string]*content.Profile)
	var rates []float64
	var cpus []time.Duration
	start := clock()
	// Assets alternate until the run's time is up; from the third
	// operation on, each build is checked against content.Load's.
	for i := 0; len(o.ops) == 0 || clock().Sub(start) < rc.seconds; i++ {
		as := assets[i%len(assets)]
		t0, c0 := clock(), cpuClock()
		built := 0
		for _, q := range []content.Quality{content.QualityGeometry, content.QualityView} {
			o.attempted++
			key := as.name + "/" + q.String()
			ref := refs[key]
			// The first build of each config goes through content.Load,
			// which builds it uncached; later ones call Build and are
			// checked against it.
			build := content.Build
			if ref == nil {
				build = content.Load
			}
			p, err := build(content.Config{Asset: as.name, Seed: seed, Quality: q})
			if err != nil {
				o.fail("%s: %v", key, err)
				continue
			}
			built++
			for _, b := range checkProfile(p, as, ref) {
				o.fail("%s: %s", key, b)
			}
			if ref == nil {
				refs[key] = p
			}
		}
		el := clock().Sub(t0)
		o.ops = append(o.ops, el)
		cpus = append(cpus, cpuClock()-c0)
		rates = append(rates, float64(built)/el.Seconds())
	}
	for _, as := range assets {
		fmt.Printf("# content-build: %s points per depth %v\n", as.name, as.points)
	}
	fmt.Printf("# content-build: median asset %.0f ms wall, %.0f ms CPU\n", ms(median(o.ops)), ms(median(cpus)))
	o.throughput = medianF(rates)
	return o, nil
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

// contentStages is one replayed build's time in each pipeline stage.
type contentStages struct {
	generate, build, sizes, lod, compare, ladder time.Duration
}

func (s contentStages) total() time.Duration {
	return s.generate + s.build + s.sizes + s.lod + s.compare + s.ladder
}

// replayContentBuild re-executes content.Build's pipeline for one preset
// and quality mode through the library's public calls, one span per
// call, and returns the ladder it measures.
func replayContentBuild(a *attribution, parent int, name string, seed uint64, q content.Quality) ([]content.LadderRow, contentStages, error) {
	var st contentStages
	ch, err := synthetic.ByName(name)
	if err != nil {
		return nil, st, err
	}
	var cloud *pointcloud.Cloud
	if st.generate, err = a.tr.call(parent, "synthetic", "Generate", 1, func() error {
		var err error
		cloud, err = synthetic.Generate(synthetic.Config{
			Character: ch, SamplesTarget: contentSamples, CaptureDepth: contentCaptureDepth, Seed: seed,
		}, synthetic.Pose{})
		return err
	}); err != nil {
		return nil, st, err
	}
	var tree *octree.Octree
	if st.build, err = a.tr.call(parent, "octree", "Build", 1, func() error {
		var err error
		tree, err = octree.Build(cloud, contentCaptureDepth)
		return err
	}); err != nil {
		return nil, st, err
	}
	var sizes []int
	if st.sizes, err = a.tr.call(parent, "octree", "StreamSizeProfile", 1, func() error {
		var err error
		sizes, err = tree.StreamSizeProfile(cloud.HasColors())
		return err
	}); err != nil {
		return nil, st, err
	}
	for d := 1; d < len(sizes); d++ {
		if sizes[d] <= sizes[d-1] {
			sizes[d] = sizes[d-1] + 1
		}
	}
	depths := content.DefaultDepths(contentCaptureDepth)
	vals := make([]float64, len(depths))
	if q == content.QualityView {
		cfg := render.Config{Width: contentViewSize, Height: contentViewSize, Camera: render.DefaultCamera(cloud.Bounds())}
		if st.ladder, err = a.tr.call(parent, "render", "DepthLadderPSNR", 1, func() error {
			v, err := render.DepthLadderPSNR(tree, cfg, depths)
			copy(vals, v)
			return err
		}); err != nil {
			return nil, st, err
		}
	} else {
		for i, d := range depths {
			var lod *pointcloud.Cloud
			dt, err := a.tr.call(parent, "octree", "LOD", 1, func() error {
				var err error
				lod, err = tree.LOD(d, octree.LODCentroid)
				return err
			})
			if err != nil {
				return nil, st, err
			}
			st.lod += dt
			var rep quality.GeometryReport
			dt, err = a.tr.call(parent, "quality", "CompareGeometry", 1, func() error {
				var err error
				rep, err = quality.CompareGeometry(cloud, lod)
				return err
			})
			if err != nil {
				return nil, st, err
			}
			st.compare += dt
			vals[i] = rep.PSNR
		}
	}
	// Cap, floor and strictify the PSNR ladder as content.Build does.
	prev := math.Inf(-1)
	for i, v := range vals {
		if math.IsInf(v, 1) || v > contentPSNRCap {
			v = contentPSNRCap
		}
		if v < 0 {
			v = 0
		}
		if v <= prev {
			v = prev + 1e-6
		}
		vals[i], prev = v, v
	}
	points := tree.Profile()
	rows := make([]content.LadderRow, len(depths))
	for i, d := range depths {
		rows[i] = content.LadderRow{Depth: d, Points: points[d], Bytes: sizes[d], PSNR: vals[i]}
	}
	return rows, st, nil
}

// attributeContentBuild is the content-build traced pass: one preset's
// two builds untraced through content.Build, then replayed stage by
// stage under spans, which must reproduce Build's ladders exactly.
func attributeContentBuild(a *attribution) error {
	const (
		moves     = "op_p50_ms, throughput_per_s @ content-build"
		movesGeo  = moves + " (geometry builds)"
		movesView = moves + " (view builds)"
	)
	root := a.tr.begin(-1, "perfbench", "content-build")
	defer a.tr.end(root, 1)
	seed := contentSeed(a.rc.seed)
	name := contentPresets[0]
	qualities := []content.Quality{content.QualityGeometry, content.QualityView}

	var untraced time.Duration
	refs := make([]*content.Profile, len(qualities))
	for i, q := range qualities {
		t0 := clock()
		p, err := content.Build(content.Config{Asset: name, Seed: seed, Quality: q})
		untraced += clock().Sub(t0)
		if err != nil {
			return err
		}
		refs[i] = p
	}
	t0 := clock()
	stages := make([]contentStages, len(qualities))
	for i, q := range qualities {
		rows, st, err := replayContentBuild(a, root, name, seed, q)
		if err != nil {
			return err
		}
		stages[i] = st
		a.check(slices.Equal(rows, refs[i].Ladder()), "content-build: replayed %s ladder differs from content.Build's", q)
	}
	traced := clock().Sub(t0)
	geo, view := stages[0], stages[1]
	a.add("synthetic.generate_s", geo.generate.Seconds(), "s", moves)
	a.add("octree.build_s", geo.build.Seconds(), "s", moves)
	a.add("octree.stream_size_profile_s", geo.sizes.Seconds(), "s", moves)
	a.add("octree.lod_s", geo.lod.Seconds(), "s", movesGeo)
	a.add("quality.compare_geometry_s", geo.compare.Seconds(), "s", movesGeo)
	a.add("render.depth_ladder_psnr_s", view.ladder.Seconds(), "s", movesView)
	a.add("content.unattributed_share", 1-(geo.total()+view.total()).Seconds()/untraced.Seconds(), "ratio", moves)
	a.add("obs.trace_overhead_ratio.content-build", traced.Seconds()/untraced.Seconds(), "ratio", "tracing cost @ content-build")
	fmt.Printf("# content-build: %s points per depth %v, bytes per depth %v\n", name, refs[0].Points(), refs[0].Bytes())
	return nil
}
