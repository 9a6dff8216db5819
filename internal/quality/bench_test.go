package quality

import (
	"testing"

	"qarv/internal/octree"
	"qarv/internal/pointcloud"
	"qarv/internal/synthetic"
)

// BenchmarkCompareGeometryLadder measures one content-build geometry
// ladder: the default longdress capture (120k samples, depth 10) against
// its LODs at depths 5–10 through one shared Reference.
func BenchmarkCompareGeometryLadder(b *testing.B) {
	ch, err := synthetic.ByName("longdress")
	if err != nil {
		b.Fatal(err)
	}
	cloud, err := synthetic.Generate(synthetic.Config{Character: ch, SamplesTarget: 120_000, CaptureDepth: 10, Seed: 1}, synthetic.Pose{})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := octree.Build(cloud, 10)
	if err != nil {
		b.Fatal(err)
	}
	var lods []*pointcloud.Cloud
	for d := 5; d <= 10; d++ {
		lod, err := tree.LOD(d, octree.LODCentroid)
		if err != nil {
			b.Fatal(err)
		}
		lods = append(lods, lod)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := NewReference(cloud)
		for _, lod := range lods {
			if _, err := ref.Geometry(lod); err != nil {
				b.Fatal(err)
			}
		}
	}
}
