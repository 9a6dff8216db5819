package octree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
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

// Cloud returns the decoded voxel centers as a point cloud.
func (dec *Decoded) Cloud() *pointcloud.Cloud {
	c := &pointcloud.Cloud{Points: make([]geom.Vec3, 0, len(dec.Keys))}
	for _, k := range dec.Keys {
		c.Points = append(c.Points, geom.VoxelCenter(k, dec.Depth, dec.Box))
	}
	return c
}

// DeserializeBytes decodes an occupancy stream produced by SerializeBytes.
// The stream must span data exactly; trailing bytes are corruption.
func DeserializeBytes(data []byte) (*Decoded, error) {
	dec, n, err := decodeGeometry(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-n)
	}
	return dec, nil
}

// decodeGeometry decodes the occupancy stream at the start of data and
// returns the number of bytes it spans.
func decodeGeometry(data []byte) (*Decoded, int, error) {
	if len(data) < headerSize {
		return nil, 0, fmt.Errorf("%w: header: %d of %d bytes", ErrCorrupt, len(data), headerSize)
	}
	hdr := data[:headerSize]
	if !bytes.Equal(hdr[:4], serializeMagic[:]) {
		return nil, 0, ErrBadMagic
	}
	if hdr[4] != 1 {
		return nil, 0, fmt.Errorf("%w: unknown version %d", ErrCorrupt, hdr[4])
	}
	depth := int(hdr[5])
	if depth < 1 || depth > MaxDepth {
		return nil, 0, fmt.Errorf("%w: depth %d", ErrDepthTooDeep, depth)
	}
	var vals [6]float64
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(hdr[6+8*i:]))
	}
	wantLeaves := binary.LittleEndian.Uint32(hdr[6+48:])
	dec := &Decoded{
		Box: geom.AABB{
			Min: geom.V(vals[0], vals[1], vals[2]),
			Max: geom.V(vals[3], vals[4], vals[5]),
		},
		Depth: depth,
	}
	n, err := decodeNode(data, headerSize, dec, 0, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if uint32(len(dec.Keys)) != wantLeaves {
		return nil, 0, fmt.Errorf("%w: decoded %d leaves, header says %d",
			ErrCorrupt, len(dec.Keys), wantLeaves)
	}
	return dec, n, nil
}

// decodeNode appends the leaves of the subtree whose occupancy byte sits
// at data[pos] (or, at the leaf level, the leaf itself) and returns the
// position just past the subtree.
func decodeNode(data []byte, pos int, dec *Decoded, prefix uint64, level int) (int, error) {
	if level == dec.Depth {
		dec.Keys = append(dec.Keys, prefix)
		return pos, nil
	}
	if pos >= len(data) {
		return pos, errors.New("occupancy stream ends early")
	}
	mask := data[pos]
	pos++
	if mask == 0 {
		return pos, errors.New("empty occupancy byte for occupied node")
	}
	for c := 0; c < 8; c++ {
		if mask&(1<<uint(c)) != 0 {
			var err error
			if pos, err = decodeNode(data, pos, dec, prefix<<3|uint64(c), level+1); err != nil {
				return pos, err
			}
		}
	}
	return pos, nil
}
