package octree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"qarv/internal/geom"
)

// Occupancy-byte serialization, the standard compact octree encoding used
// by point-cloud codecs: a pre-order DFS where each internal node emits one
// byte whose bit i says child octant i is occupied. Decoding reconstructs
// the voxel set exactly (geometry only, no attributes), which is the
// payload an AR stream at depth d would ship.

// Serialization errors; matchable with errors.Is.
var (
	ErrBadMagic     = errors.New("octree: bad serialization magic")
	ErrCorrupt      = errors.New("octree: corrupt serialization")
	ErrDepthTooDeep = errors.New("octree: serialized depth exceeds supported maximum")
)

var serializeMagic = [4]byte{'Q', 'O', 'C', 'T'}

// header layout: magic, version byte, depth byte, box (6 × float64),
// leaf count (uint32) for validation.
const headerSize = 4 + 1 + 1 + 48 + 4

// SerializeBytes returns the occupancy encoding of the octree at depth d.
func (o *Octree) SerializeBytes(d int) ([]byte, error) {
	if d < 1 || d > o.maxDepth {
		return nil, fmt.Errorf("%w: %d", ErrBadDepth, d)
	}
	leaves, _ := o.OccupiedNodes(d)
	dst := make([]byte, 0, headerSize)
	dst = append(dst, serializeMagic[:]...)
	dst = append(dst, 1, byte(d))
	for _, f := range [...]float64{
		o.box.Min.X, o.box.Min.Y, o.box.Min.Z,
		o.box.Max.X, o.box.Max.Y, o.box.Max.Z,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(leaves))
	return o.appendNode(dst, 0, len(o.keys), 0, d), nil
}

// appendNode appends the occupancy byte of the node spanning keys
// [start,end) at the given level, then recurses into occupied children,
// stopping at leafDepth.
func (o *Octree) appendNode(dst []byte, start, end, level, leafDepth int) []byte {
	if level == leafDepth {
		return dst
	}
	// Partition [start,end) by child octant at this level.
	var childStart [9]int
	childStart[0] = start
	pos := start
	for c := 0; c < 8; c++ {
		for pos < end && geom.MortonChildIndex(o.keys[pos], level) == c {
			pos++
		}
		childStart[c+1] = pos
	}
	var mask byte
	for c := 0; c < 8; c++ {
		if childStart[c+1] > childStart[c] {
			mask |= 1 << uint(c)
		}
	}
	dst = append(dst, mask)
	for c := 0; c < 8; c++ {
		if childStart[c+1] > childStart[c] {
			dst = o.appendNode(dst, childStart[c], childStart[c+1], level+1, leafDepth)
		}
	}
	return dst
}

// Decoded is the result of deserializing an occupancy stream: the root box,
// the leaf depth, and the occupied leaf voxels.
type Decoded struct {
	Box   geom.AABB
	Depth int
	Keys  []uint64 // depth-Depth Morton prefixes of occupied leaves, in order
}

// DeserializeBytes decodes an occupancy stream produced by SerializeBytes.
// The stream must span data exactly; trailing bytes are corruption.
//
//qarv:allow unreached (a) oracle: tests round-trip the reached SerializeBytes through it
func DeserializeBytes(data []byte) (*Decoded, error) {
	dec, n, err := decodeGeometry(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-n)
	}
	return &dec, nil
}

// decodeGeometry decodes the occupancy stream at the start of data and
// returns the number of bytes it spans.
func decodeGeometry(data []byte) (Decoded, int, error) {
	if len(data) < headerSize {
		return Decoded{}, 0, fmt.Errorf("%w: header: %d of %d bytes", ErrCorrupt, len(data), headerSize)
	}
	hdr := data[:headerSize]
	if !bytes.Equal(hdr[:4], serializeMagic[:]) {
		return Decoded{}, 0, ErrBadMagic
	}
	if hdr[4] != 1 {
		return Decoded{}, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, hdr[4])
	}
	depth := int(hdr[5])
	if depth < 1 || depth > MaxDepth {
		return Decoded{}, 0, fmt.Errorf("%w: depth %d", ErrDepthTooDeep, depth)
	}
	var vals [6]float64
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(hdr[6+8*i:]))
	}
	wantLeaves := binary.LittleEndian.Uint32(hdr[6+48:])
	// Every leaf is a set bit of an occupancy byte, so the payload caps
	// the header's count at 8 per byte. Up front, reserve at most one key
	// per payload byte: a forged count on arbitrary bytes then costs at
	// most 8 bytes of keys per byte received, and only a walk that really
	// produces more leaves than that reserves the rest.
	payload := uint64(len(data) - headerSize)
	want := int(min(uint64(wantLeaves), 8*payload))
	keys, n, err := appendLeaves(make([]uint64, 0, min(want, int(payload))), want,
		data, headerSize, depth)
	if err != nil {
		return Decoded{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if uint32(len(keys)) != wantLeaves {
		return Decoded{}, 0, fmt.Errorf("%w: decoded %d leaves, header says %d",
			ErrCorrupt, len(keys), wantLeaves)
	}
	return Decoded{
		Box: geom.AABB{
			Min: geom.V(vals[0], vals[1], vals[2]),
			Max: geom.V(vals[3], vals[4], vals[5]),
		},
		Depth: depth,
		Keys:  keys,
	}, n, nil
}

// appendLeaves walks the pre-order occupancy stream of a depth-depth tree
// that starts at data[pos], appends every leaf's Morton prefix to keys in
// stream order, and returns the position just past the stream. When the
// leaves outgrow keys' capacity, it grows keys once to hold want. The walk
// is a loop over one frame per open level: the children of that node not
// yet visited and the node's prefix. The last internal level's children
// are leaves, so they are emitted straight from its occupancy byte.
func appendLeaves(keys []uint64, want int, data []byte, pos, depth int) ([]uint64, int, error) {
	var masks [MaxDepth]uint8
	var prefixes [MaxDepth]uint64
	last := depth - 1
	level, child := 0, uint64(0)
	for {
		// Open the node child of the node at level-1 (the root at level 0).
		if pos >= len(data) {
			return keys, pos, errors.New("occupancy stream ends early")
		}
		mask := data[pos]
		pos++
		if mask == 0 {
			return keys, pos, errors.New("empty occupancy byte for occupied node")
		}
		prefix := child
		if level > 0 {
			prefix |= prefixes[level-1] << 3
		}
		if level < last {
			masks[level], prefixes[level] = mask, prefix
			level++
		} else {
			if k := len(keys) + bits.OnesCount8(mask); k > cap(keys) {
				keys = slices.Grow(keys, max(want, k)-len(keys))
			}
			for prefix <<= 3; mask != 0; mask &= mask - 1 {
				keys = append(keys, prefix|uint64(bits.TrailingZeros8(mask)))
			}
		}
		// Descend into the next unvisited child, closing finished levels.
		for level > 0 && masks[level-1] == 0 {
			level--
		}
		if level == 0 {
			return keys, pos, nil
		}
		m := masks[level-1]
		child = uint64(bits.TrailingZeros8(m))
		masks[level-1] = m & (m - 1)
	}
}
