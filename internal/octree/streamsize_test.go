package octree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

// bruteStreamSizes reimplements the pre-optimization StreamSizeProfile:
// serialize the whole tree at every depth and measure the buffer. The
// analytic fast path must stay pinned to this byte-for-byte.
func bruteStreamSizes(t *testing.T, o *Octree, withColors bool) []int {
	t.Helper()
	sizes := make([]int, o.MaxDepth()+1)
	sizes[0] = headerSize
	for d := 1; d <= o.MaxDepth(); d++ {
		var data []byte
		var err error
		if withColors {
			data, err = o.SerializeWithColorsBytes(d)
		} else {
			data, err = o.SerializeBytes(d)
		}
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		sizes[d] = len(data)
	}
	return sizes
}

func TestStreamSizeProfileMatchesSerialization(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cloud      *pointcloud.Cloud
		depth      int
		withColors bool
	}{
		{"smooth-colors", smoothCloud(1200, 7), 8, true},
		{"smooth-geometry", smoothCloud(1200, 7), 8, false},
		{"tiny", smoothCloud(3, 11), 4, true},
		{"single-point", smoothCloud(1, 5), 6, true},
		{"deep", smoothCloud(400, 13), 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := Build(tc.cloud, tc.depth)
			if err != nil {
				t.Fatal(err)
			}
			got, err := o.StreamSizeProfile(tc.withColors)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteStreamSizes(t, o, tc.withColors)
			if len(got) != len(want) {
				t.Fatalf("profile length %d, want %d", len(got), len(want))
			}
			for d := range want {
				if got[d] != want[d] {
					t.Errorf("depth %d: size %d, want %d (serialized)", d, got[d], want[d])
				}
			}
		})
	}
}

func TestStreamSizeProfileNoColors(t *testing.T) {
	c := &pointcloud.Cloud{}
	rng := geom.NewRNG(3)
	for i := 0; i < 64; i++ {
		c.Append(geom.V(rng.Float64(), rng.Float64(), rng.Float64()), nil, nil)
	}
	o, err := Build(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.StreamSizeProfile(true); !errors.Is(err, ErrNoColors) {
		t.Fatalf("colorless cloud: err = %v, want ErrNoColors", err)
	}
	sizes, err := o.StreamSizeProfile(false)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != headerSize {
		t.Fatalf("depth 0 size %d, want bare header %d", sizes[0], headerSize)
	}
}

// TestSerializeWithColorsRoundTripsByteExact is the property test for the
// combined stream: at every depth, decoding yields exactly the tree's
// occupied Morton prefixes and averaged leaf colors, and re-encoding the
// decoded payload reproduces the original stream byte-for-byte.
func TestSerializeWithColorsRoundTripsByteExact(t *testing.T) {
	for _, seed := range []uint64{1, 17, 99} {
		o, err := Build(smoothCloud(900, seed), 9)
		if err != nil {
			t.Fatal(err)
		}
		geomSizes, err := o.StreamSizeProfile(false)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= o.MaxDepth(); d++ {
			data, err := o.SerializeWithColorsBytes(d)
			if err != nil {
				t.Fatalf("seed %d depth %d: %v", seed, d, err)
			}
			dec, err := DeserializeWithColorsBytes(data)
			if err != nil {
				t.Fatalf("seed %d depth %d: %v", seed, d, err)
			}
			// Decoded keys are exactly the occupied prefixes in Morton order.
			var keys []uint64
			if err := o.ForEachNode(d, func(n Node) { keys = append(keys, n.Key) }); err != nil {
				t.Fatal(err)
			}
			if len(dec.Keys) != len(keys) {
				t.Fatalf("seed %d depth %d: %d keys, want %d", seed, d, len(dec.Keys), len(keys))
			}
			for i := range keys {
				if dec.Keys[i] != keys[i] {
					t.Fatalf("seed %d depth %d leaf %d: key %x, want %x", seed, d, i, dec.Keys[i], keys[i])
				}
			}
			// Decoded colors are exactly the averaged leaf colors.
			want := o.appendLeafColors(nil, d)
			for i := range want {
				if dec.Colors[i] != want[i] {
					t.Fatalf("seed %d depth %d leaf %d: color %v, want %v", seed, d, i, dec.Colors[i], want[i])
				}
			}
			// Re-encoding the decoded payload reproduces the stream
			// byte-for-byte: geometry prefix and color section split at the
			// analytic geometry size.
			geoLen := geomSizes[d]
			geo, err := o.SerializeBytes(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(geo, data[:geoLen]) {
				t.Fatalf("seed %d depth %d: geometry section differs from SerializeBytes output", seed, d)
			}
			if !bytes.Equal(appendColors(nil, dec.Colors), data[geoLen:]) {
				t.Fatalf("seed %d depth %d: re-encoded color section differs", seed, d)
			}
		}
	}
}

func BenchmarkOctreeBuild(b *testing.B) {
	c := smoothCloud(100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamSizeProfile(b *testing.B) {
	c := smoothCloud(100_000, 1)
	o, err := Build(c, 10)
	if err != nil {
		b.Fatal(err)
	}
	o.profileSlice() // pre-warm the lazy occupancy profile
	for _, withColors := range []bool{false, true} {
		b.Run(fmt.Sprintf("colors=%v", withColors), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := o.StreamSizeProfile(withColors); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
