package octree

import (
	"errors"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

// smoothCloud has spatially smooth colors (a gradient), the regime the
// delta coder is built for.
func smoothCloud(n int, seed uint64) *pointcloud.Cloud {
	rng := geom.NewRNG(seed)
	c := &pointcloud.Cloud{}
	for i := 0; i < n; i++ {
		p := geom.V(rng.Float64(), rng.Float64(), rng.Float64())
		col := pointcloud.Color{
			R: uint8(200 * p.X),
			G: uint8(200 * p.Y),
			B: uint8(200 * p.Z),
		}
		c.Append(p, &col, nil)
	}
	return c
}

func TestColorStreamRoundTrip(t *testing.T) {
	c := smoothCloud(800, 31)
	o, err := Build(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{2, 5, 8} {
		data, err := o.SerializeWithColorsBytes(d)
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		dec, err := DeserializeWithColorsBytes(data)
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		want, _ := o.OccupiedNodes(d)
		if len(dec.Keys) != want || len(dec.Colors) != want {
			t.Fatalf("depth %d: %d keys, %d colors, want %d", d, len(dec.Keys), len(dec.Colors), want)
		}
		// Decoded colors must match the LOD's averaged colors exactly
		// (the coding is lossless on the averages).
		lod, err := o.LOD(d, LODVoxelCenter)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec.Colors {
			if dec.Colors[i] != lod.Colors[i] {
				t.Fatalf("depth %d leaf %d: color %v != %v", d, i, dec.Colors[i], lod.Colors[i])
			}
		}
	}
}

func TestColorStreamRequiresColors(t *testing.T) {
	c := &pointcloud.Cloud{}
	rng := geom.NewRNG(32)
	for i := 0; i < 50; i++ {
		c.Append(geom.V(rng.Float64(), rng.Float64(), rng.Float64()), nil, nil)
	}
	o, err := Build(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SerializeWithColorsBytes(5); !errors.Is(err, ErrNoColors) {
		t.Errorf("colorless cloud: %v", err)
	}
}

func TestColorStreamSmallerThanRawForSmoothContent(t *testing.T) {
	c := smoothCloud(4000, 33)
	o, err := Build(c, 9)
	if err != nil {
		t.Fatal(err)
	}
	data, err := o.SerializeWithColorsBytes(9)
	if err != nil {
		t.Fatal(err)
	}
	geoOnly, err := o.SerializeBytes(9)
	if err != nil {
		t.Fatal(err)
	}
	leaves, _ := o.OccupiedNodes(9)
	rawAttr := 3 * leaves // 3 bytes/leaf uncompressed
	attr := len(data) - geoOnly2len(geoOnly) - 8
	if attr >= rawAttr {
		t.Errorf("delta-coded colors %dB not smaller than raw %dB", attr, rawAttr)
	}
}

func geoOnly2len(b []byte) int { return len(b) }

func TestColorStreamCorruption(t *testing.T) {
	c := smoothCloud(300, 34)
	o, err := Build(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	data, err := o.SerializeWithColorsBytes(6)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the color payload.
	if _, err := DeserializeWithColorsBytes(data[:len(data)-2]); !errors.Is(err, ErrCorruptColors) {
		t.Errorf("truncated colors: %v", err)
	}
	// Bytes after the last color block are corruption.
	if _, err := DeserializeWithColorsBytes(append(data, 0, 0)); !errors.Is(err, ErrCorruptColors) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Geometry-only stream has no color section at all.
	geo, err := o.SerializeBytes(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeserializeWithColorsBytes(geo); !errors.Is(err, ErrCorruptColors) {
		t.Errorf("missing color section: %v", err)
	}
}

func TestStreamSizeProfile(t *testing.T) {
	c := smoothCloud(2000, 35)
	o, err := Build(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	withCol, err := o.StreamSizeProfile(true)
	if err != nil {
		t.Fatal(err)
	}
	geoOnly, err := o.StreamSizeProfile(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(withCol) != 9 || len(geoOnly) != 9 {
		t.Fatalf("profile lengths %d/%d", len(withCol), len(geoOnly))
	}
	for d := 1; d <= 8; d++ {
		if withCol[d] <= geoOnly[d] {
			t.Errorf("depth %d: colored stream %dB not larger than geometry %dB",
				d, withCol[d], geoOnly[d])
		}
		if d > 1 && withCol[d] < withCol[d-1] {
			t.Errorf("stream size decreased at depth %d", d)
		}
	}
	// The byte profile is a valid monotone cost profile for the
	// controller (bytes-based offload scenarios).
	for d := 2; d <= 8; d++ {
		if withCol[d] <= withCol[d-1] {
			t.Errorf("profile not strictly increasing at %d: %v", d, withCol)
		}
	}
}
