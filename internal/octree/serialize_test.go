package octree

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"qarv/internal/geom"
)

func TestSerializeRoundTripOccupancy(t *testing.T) {
	c := randomCloud(1500, 11)
	o, err := Build(c, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 4, 7, 9} {
		data, err := o.SerializeBytes(d)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DeserializeBytes(data)
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		if dec.Depth != d {
			t.Errorf("decoded depth = %d, want %d", dec.Depth, d)
		}
		want, _ := o.OccupiedNodes(d)
		if len(dec.Keys) != want {
			t.Fatalf("depth %d: decoded %d leaves, want %d", d, len(dec.Keys), want)
		}
		// Decoded keys must exactly equal the depth-d prefixes in order.
		i := 0
		if err := o.ForEachNode(d, func(n Node) {
			if dec.Keys[i] != n.Key {
				t.Fatalf("depth %d leaf %d: key %d != %d", d, i, dec.Keys[i], n.Key)
			}
			i++
		}); err != nil {
			t.Fatal(err)
		}
		if dec.Box != o.Box() {
			t.Errorf("decoded box %v != %v", dec.Box, o.Box())
		}
	}
}

func TestDecodedCloudMatchesVoxelCenters(t *testing.T) {
	c := randomCloud(400, 12)
	o, err := Build(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	data, err := o.SerializeBytes(5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DeserializeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.Cloud()
	want, err := o.LOD(5, LODVoxelCenter)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("decoded cloud %d points, want %d", got.Len(), want.Len())
	}
	for i := range got.Points {
		if got.Points[i].Dist(want.Points[i]) > 1e-9 {
			t.Fatalf("point %d: %v != %v", i, got.Points[i], want.Points[i])
		}
	}
}

func TestSerializeSizeScalesWithDepth(t *testing.T) {
	// The byte stream is one byte per internal node, so size grows with d.
	o, err := Build(randomCloud(3000, 13), 10)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for d := 1; d <= 10; d++ {
		data, err := o.SerializeBytes(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < prev {
			t.Fatalf("stream shrank at depth %d", d)
		}
		prev = len(data)
	}
}

func TestSerializeBadDepth(t *testing.T) {
	o, err := Build(randomCloud(10, 14), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SerializeBytes(0); !errors.Is(err, ErrBadDepth) {
		t.Errorf("depth 0: %v", err)
	}
	if _, err := o.SerializeBytes(5); !errors.Is(err, ErrBadDepth) {
		t.Errorf("depth beyond max: %v", err)
	}
}

func TestDeserializeErrors(t *testing.T) {
	if _, err := DeserializeBytes([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short input: %v", err)
	}
	bad := make([]byte, headerSize)
	copy(bad, "XXXX")
	if _, err := DeserializeBytes(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Valid stream, then truncate the body.
	o, err := Build(randomCloud(100, 15), 6)
	if err != nil {
		t.Fatal(err)
	}
	data, err := o.SerializeBytes(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeserializeBytes(data[:len(data)-3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated body: %v", err)
	}
	// The stream must end where the data does: trailing bytes are
	// corruption, not padding.
	if _, err := DeserializeBytes(append(data, 1, 2, 3)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Corrupt an occupancy byte to zero (occupied nodes may not be empty).
	mutated := bytes.Clone(data)
	mutated[headerSize] = 0
	if _, err := DeserializeBytes(mutated); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero mask: %v", err)
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	// Property: round-trip preserves leaf count for random clouds/depths.
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw)%6 + 1
		c := randomCloud(int(seed%300)+2, seed+1)
		o, err := Build(c, 7)
		if err != nil {
			return false
		}
		data, err := o.SerializeBytes(d)
		if err != nil {
			return false
		}
		dec, err := DeserializeBytes(data)
		if err != nil {
			return false
		}
		want, _ := o.OccupiedNodes(d)
		return len(dec.Keys) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestVoxelCenterRoundTripAccuracy(t *testing.T) {
	// Every decoded voxel center must be within half a voxel diagonal of
	// some original point (geometry fidelity of the stream).
	c := randomCloud(500, 16)
	o, err := Build(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := o.SerializeBytes(8)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DeserializeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	voxelEdge := o.Box().Size().X / float64(int(1)<<8)
	maxDist := voxelEdge * 0.87 // half diagonal = edge * sqrt(3)/2
	for _, vc := range dec.Cloud().Points {
		best := 1e18
		for _, p := range c.Points {
			if d := vc.Dist(p); d < best {
				best = d
			}
		}
		if best > maxDist {
			t.Fatalf("voxel center %v is %v from nearest point (max %v)", vc, best, maxDist)
		}
	}
	_ = geom.Vec3{}
}
