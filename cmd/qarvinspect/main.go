// Command qarvinspect reads a PLY point cloud and prints its octree
// depth ladder: per-depth occupancy (the controller's workload curve
// a(d)), point ratios, and geometry PSNR — the Fig. 1 table for any input
// cloud, including real 8i Voxelized Full Bodies files.
//
// Usage:
//
//	qarvinspect [-depth 10] [-metrics] file.ply
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"qarv/internal/octree"
	"qarv/internal/ply"
	"qarv/internal/quality"
	"qarv/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvinspect:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qarvinspect", flag.ContinueOnError)
	maxDepth := fs.Int("depth", 10, "octree max depth")
	metrics := fs.Bool("metrics", false, "compute PSNR metrics per depth (slow for large clouds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: qarvinspect [-depth N] [-metrics] file.ply")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cloud, err := ply.ReadCloud(f)
	if err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	b := cloud.Bounds()
	fmt.Fprintf(out, "file        %s\n", path)
	fmt.Fprintf(out, "points      %d\n", cloud.Len())
	fmt.Fprintf(out, "colors      %v\n", cloud.HasColors())
	fmt.Fprintf(out, "normals     %v\n", cloud.HasNormals())
	fmt.Fprintf(out, "bounds      %v\n", b)
	fmt.Fprintf(out, "extent      %v\n", b.Size())

	tree, err := octree.Build(cloud, *maxDepth)
	if err != nil {
		return err
	}
	profile := tree.Profile()
	headers := []string{"depth", "occupied voxels", "ratio"}
	if *metrics {
		headers = append(headers, "geom PSNR (dB)", "Hausdorff")
	}
	rows := make([][]string, 0, len(profile))
	full := profile[len(profile)-1]
	var ref *quality.Reference
	if *metrics {
		ref = quality.NewReference(cloud)
	}
	for d, n := range profile {
		row := []string{
			strconv.Itoa(d),
			strconv.Itoa(n),
			fmt.Sprintf("%.5f", float64(n)/float64(full)),
		}
		if *metrics && d >= 1 {
			lod, err := tree.LOD(d, octree.LODCentroid)
			if err != nil {
				return err
			}
			rep, err := ref.Geometry(lod)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", rep.PSNR), fmt.Sprintf("%.6f", rep.Hausdorff))
		} else if *metrics {
			row = append(row, "-", "-")
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(out)
	return trace.RenderTextTable(out, headers, rows)
}
