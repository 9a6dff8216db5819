package content

import "testing"

// BenchmarkContentProfile measures the full content pipeline — asset
// generation, octree build, stream-size ladder, and geometry-PSNR
// measurement — at the small capture scale CI smokes run at. Build is
// the uncached path; Load amortizes it to a map hit.
func BenchmarkContentProfile(b *testing.B) {
	cfg := Config{Asset: "loot", Samples: 20_000, CaptureDepth: 8, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentProfileView is the same pipeline with view-PSNR
// quality: every depth renders through the z-buffer rasterizer.
func BenchmarkContentProfileView(b *testing.B) {
	cfg := Config{
		Asset: "loot", Samples: 20_000, CaptureDepth: 8, Seed: 1,
		Quality: QualityView,
		View:    View{Width: 160, Height: 160},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentBuildAsset is one operation of the content-build
// benchmark workload: longdress's geometry and view profiles, built
// uncached at the default configuration (120k samples, depth 10).
func BenchmarkContentBuildAsset(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range []Quality{QualityGeometry, QualityView} {
			if _, err := Build(Config{Asset: "longdress", Quality: q}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
