package geom

import (
	"testing"
	"testing/quick"
)

func TestMortonEncodeDecodeRoundTrip(t *testing.T) {
	// Property: decode(encode(x,y,z)) == (x,y,z) on the 21-bit lattice.
	f := func(x, y, z uint32) bool {
		x &= mortonMask
		y &= mortonMask
		z &= mortonMask
		gx, gy, gz := MortonDecode(MortonEncode(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMortonEncodeKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
	}
	for _, c := range cases {
		if got := MortonEncode(c.x, c.y, c.z); got != c.want {
			t.Errorf("MortonEncode(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestMortonInjectiveOnSamples(t *testing.T) {
	rng := NewRNG(99)
	seen := make(map[uint64][3]uint32, 5000)
	for i := 0; i < 5000; i++ {
		x := uint32(rng.Uint64()) & mortonMask
		y := uint32(rng.Uint64()) & mortonMask
		z := uint32(rng.Uint64()) & mortonMask
		m := MortonEncode(x, y, z)
		if prev, ok := seen[m]; ok && prev != [3]uint32{x, y, z} {
			t.Fatalf("collision: %v and %v share key %d", prev, [3]uint32{x, y, z}, m)
		}
		seen[m] = [3]uint32{x, y, z}
	}
}

func TestMortonAtDepthPrefix(t *testing.T) {
	m := MortonEncode(mortonMask, mortonMask, mortonMask) // all ones
	if got := MortonAtDepth(m, 0); got != 0 {
		t.Errorf("depth 0 = %d", got)
	}
	if got := MortonAtDepth(m, 1); got != 7 {
		t.Errorf("depth 1 = %d, want 7", got)
	}
	if got := MortonAtDepth(m, MortonBits); got != m {
		t.Errorf("full depth must be identity")
	}
	// Deeper prefixes refine shallower ones: shallow = deep >> 3.
	for d := 1; d < MortonBits; d++ {
		if MortonAtDepth(m, d) != MortonAtDepth(m, d+1)>>3 {
			t.Fatalf("depth %d prefix not a truncation of depth %d", d, d+1)
		}
	}
}

// octantDescent returns the child index of p's octant in b (X=bit0,
// Y=bit1, Z=bit2, upper halves set) and that child cube.
func octantDescent(b AABB, p Vec3) (int, AABB) {
	c := b.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
		b.Min.X = c.X
	} else {
		b.Max.X = c.X
	}
	if p.Y >= c.Y {
		i |= 2
		b.Min.Y = c.Y
	} else {
		b.Max.Y = c.Y
	}
	if p.Z >= c.Z {
		i |= 4
		b.Min.Z = c.Z
	} else {
		b.Max.Z = c.Z
	}
	return i, b
}

func TestMortonChildIndexMatchesOctantDescent(t *testing.T) {
	// Descending the root cube octant by octant must follow the same path
	// as the Morton key's per-level child indices.
	box := NewAABB(V(0, 0, 0), V(1, 1, 1))
	rng := NewRNG(5)
	for n := 0; n < 200; n++ {
		p := V(rng.Float64(), rng.Float64(), rng.Float64())
		m := MortonFromPoint(p, box)
		cur := box
		for level := 0; level < 8; level++ {
			var wantIdx int
			wantIdx, cur = octantDescent(cur, p)
			gotIdx := MortonChildIndex(m, level)
			if gotIdx != wantIdx {
				t.Fatalf("point %v level %d: morton child %d, octant %d", p, level, gotIdx, wantIdx)
			}
		}
	}
}

func TestLatticeCoordClamping(t *testing.T) {
	if LatticeCoord(-5, 0, 1) != 0 {
		t.Error("below-range values must clamp to 0")
	}
	if got := LatticeCoord(2, 0, 1); got != mortonMask {
		t.Errorf("above-range values must clamp to last cell, got %d", got)
	}
	if got := LatticeCoord(1, 0, 1); got != mortonMask {
		t.Errorf("value at hi must clamp into last cell, got %d", got)
	}
	if LatticeCoord(0.5, 0, 0) != 0 {
		t.Error("degenerate interval must map to 0")
	}
}

func TestVoxelCenterContainsPoint(t *testing.T) {
	// The depth-d voxel center of a point must be within half a voxel of it.
	box := NewAABB(V(-2, -2, -2), V(2, 2, 2))
	rng := NewRNG(11)
	for n := 0; n < 200; n++ {
		p := V(rng.Range(-2, 2), rng.Range(-2, 2), rng.Range(-2, 2))
		m := MortonFromPoint(p, box)
		for _, d := range []int{1, 3, 5, 8} {
			key := MortonAtDepth(m, d)
			c := VoxelCenter(key, d, box)
			half := box.Size().X / float64(int64(2)<<uint(d)) // half voxel edge
			if diff := p.Sub(c); diff.X > half+1e-9 || diff.X < -half-1e-9 ||
				diff.Y > half+1e-9 || diff.Y < -half-1e-9 ||
				diff.Z > half+1e-9 || diff.Z < -half-1e-9 {
				t.Fatalf("depth %d voxel center %v too far from point %v (half=%v)", d, c, p, half)
			}
		}
	}
}

func TestVoxelCenterDepthZero(t *testing.T) {
	box := NewAABB(V(0, 0, 0), V(4, 4, 4))
	if got := VoxelCenter(0, 0, box); got != box.Center() {
		t.Errorf("depth-0 voxel center = %v, want box center", got)
	}
}
