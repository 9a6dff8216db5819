package pointcloud_test

import (
	"testing"

	"qarv/internal/octree"
	"qarv/internal/pointcloud"
	"qarv/internal/synthetic"
)

// bodyCapture is the content pipeline's default asset: the synthetic
// longdress body at 120k surface samples, voxelized at depth 10, with its
// depth-8 level of detail as a query set.
func bodyCapture(b *testing.B) (cloud, lod *pointcloud.Cloud) {
	b.Helper()
	ch, err := synthetic.ByName("longdress")
	if err != nil {
		b.Fatal(err)
	}
	cloud, err = synthetic.Generate(synthetic.Config{Character: ch, SamplesTarget: 120_000, CaptureDepth: 10, Seed: 1}, synthetic.Pose{})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := octree.Build(cloud, 10)
	if err != nil {
		b.Fatal(err)
	}
	if lod, err = tree.LOD(8, octree.LODCentroid); err != nil {
		b.Fatal(err)
	}
	return cloud, lod
}

// BenchmarkGridIndexBuild builds the default-size index over a body
// capture; render.Render pays this several times per view ladder.
func BenchmarkGridIndexBuild(b *testing.B) {
	cloud, _ := bodyCapture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pointcloud.NewGridIndex(cloud, 0)
	}
}

// BenchmarkGridIndexNearest times one nearest-neighbour query against a
// body capture, cycling through its depth-8 LOD centroids, the queries a
// geometry-PSNR ladder makes.
func BenchmarkGridIndexNearest(b *testing.B) {
	cloud, lod := bodyCapture(b)
	idx := pointcloud.NewGridIndex(cloud, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Nearest(lod.Points[i%lod.Len()])
	}
}

// BenchmarkVoxelDownsample voxelizes the longdress body's 120k raw
// surface samples at the depth-10 capture lattice, the step that ends
// every synthetic.Generate.
func BenchmarkVoxelDownsample(b *testing.B) {
	ch, err := synthetic.ByName("longdress")
	if err != nil {
		b.Fatal(err)
	}
	raw, err := synthetic.Generate(synthetic.Config{Character: ch, SamplesTarget: 120_000, CaptureDepth: 10, Seed: 1, SkipVoxelize: true}, synthetic.Pose{})
	if err != nil {
		b.Fatal(err)
	}
	voxel := raw.Bounds().Cubified().LongestAxisLength() / (1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := raw.VoxelDownsample(voxel); err != nil {
			b.Fatal(err)
		}
	}
}
