package geom

// Morton (Z-order) codes interleave the bits of three lattice coordinates
// into a single 64-bit key. The octree uses them as stable voxel identities:
// the occupancy profile at depth d is the set of distinct Morton prefixes of
// length 3d, and serialization orders nodes by Morton key so output is
// deterministic regardless of build order.

// MortonBits is the number of bits kept per axis. 3·21 = 63 bits fit a
// uint64, supporting octrees up to depth 21 — far deeper than the depth
// 5–10 range the paper controls.
const MortonBits = 21

// mortonMask is the per-axis coordinate mask.
const mortonMask = (1 << MortonBits) - 1

// spreadBits3 spaces the low 21 bits of x three apart (..b2..b1..b0).
func spreadBits3(x uint64) uint64 {
	x &= mortonMask
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compactBits3 is the inverse of spreadBits3.
func compactBits3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x1f0000ff0000ff
	x = (x ^ x>>16) & 0x1f00000000ffff
	x = (x ^ x>>32) & mortonMask
	return x
}

// MortonEncode interleaves the low 21 bits of x, y, z into a Z-order key.
// Bit 0 of the key is bit 0 of x (X=bit0, Y=bit1, Z=bit2 at every
// level), so a key's per-level child index names the octant of its cube.
func MortonEncode(x, y, z uint32) uint64 {
	return spreadBits3(uint64(x)) | spreadBits3(uint64(y))<<1 | spreadBits3(uint64(z))<<2
}

// MortonDecode recovers the three lattice coordinates from a Z-order key.
func MortonDecode(m uint64) (x, y, z uint32) {
	return uint32(compactBits3(m)), uint32(compactBits3(m >> 1)), uint32(compactBits3(m >> 2))
}

// MortonAtDepth truncates a full-resolution Morton key to its depth-d octree
// node key: the top 3·d interleaved bits, shifted down so that sibling order
// is preserved. d must be in [0, MortonBits].
func MortonAtDepth(m uint64, d int) uint64 {
	if d <= 0 {
		return 0
	}
	if d >= MortonBits {
		return m
	}
	return m >> uint(3*(MortonBits-d))
}

// MortonChildIndex returns the octant index (0..7) of the depth-(level+1)
// child that key m descends into below its depth-level node.
// level counts from 0 (root); m is a full-resolution key.
func MortonChildIndex(m uint64, level int) int {
	shift := uint(3 * (MortonBits - 1 - level))
	return int((m >> shift) & 7)
}

// LatticeCoord quantizes a continuous coordinate v within [lo, hi) onto the
// 2^MortonBits lattice. Values at or beyond hi clamp to the last cell so
// the cloud's extreme point still receives a valid voxel.
func LatticeCoord(v, lo, hi float64) uint32 {
	if hi <= lo {
		return 0
	}
	t := (v - lo) / (hi - lo)
	c := int64(t * (1 << MortonBits))
	if c < 0 {
		c = 0
	}
	if c > mortonMask {
		c = mortonMask
	}
	return uint32(c)
}

// MortonFromPoint maps a point inside box to its full-resolution Morton key.
// The box should be cubified so voxels are cubic.
func MortonFromPoint(p Vec3, box AABB) uint64 {
	x := LatticeCoord(p.X, box.Min.X, box.Max.X)
	y := LatticeCoord(p.Y, box.Min.Y, box.Max.Y)
	z := LatticeCoord(p.Z, box.Min.Z, box.Max.Z)
	return MortonEncode(x, y, z)
}

// VoxelCenter returns the center of the depth-d voxel identified by the
// depth-d key (as produced by MortonAtDepth) inside box.
func VoxelCenter(key uint64, d int, box AABB) Vec3 {
	// Re-spread the truncated key back to full resolution at the voxel's
	// minimum corner, then offset by half a voxel.
	if d <= 0 {
		return box.Center()
	}
	full := key << uint(3*(MortonBits-d))
	x, y, z := MortonDecode(full)
	size := box.Size()
	cells := float64(int64(1) << uint(d))
	vx := size.X / cells
	vy := size.Y / cells
	vz := size.Z / cells
	// Lattice coordinates address 2^MortonBits cells; a depth-d voxel spans
	// 2^(MortonBits−d) lattice cells per axis.
	scale := float64(int64(1) << uint(MortonBits-d))
	return Vec3{
		X: box.Min.X + (float64(x)/scale+0.5)*vx,
		Y: box.Min.Y + (float64(y)/scale+0.5)*vy,
		Z: box.Min.Z + (float64(z)/scale+0.5)*vz,
	}
}
