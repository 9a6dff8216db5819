package octree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"qarv/internal/pointcloud"
)

// Attribute-coded streams: the occupancy geometry stream followed by the
// per-leaf average colors in Morton order, delta-coded per channel with
// zigzag varints. Smooth surfaces (clothing, skin) have small
// leaf-to-leaf color deltas in Morton order, so the delta coding shrinks
// the attribute payload substantially versus raw RGB — this is the
// payload a quality-aware AR stream at depth d actually ships, and the
// size profile feeds the bytes-based cost model used by the edge-offload
// experiments.

// Attribute-coding errors.
var (
	ErrNoColors       = errors.New("octree: cloud has no colors to encode")
	ErrCorruptColors  = errors.New("octree: corrupt color payload")
	ErrColorCountMism = errors.New("octree: color count does not match leaf count")
)

var colorMagic = [4]byte{'Q', 'C', 'O', 'L'}

// SerializeWithColorsBytes returns the occupancy stream at depth d
// followed by the delta-coded per-leaf average colors.
func (o *Octree) SerializeWithColorsBytes(d int) ([]byte, error) {
	if !o.cloud.HasColors() {
		return nil, ErrNoColors
	}
	data, err := o.SerializeBytes(d)
	if err != nil {
		return nil, err
	}
	return appendColors(data, o.appendLeafColors(nil, d)), nil
}

// appendLeafColors appends the per-leaf average colors at depth d in
// Morton order to dst, using the same rounding as LOD extraction so the
// attribute stream matches what the renderer shows. Reusing dst[:0]
// across depths lets StreamSizeProfile avoid per-depth allocations.
func (o *Octree) appendLeafColors(dst []pointcloud.Color, d int) []pointcloud.Color {
	_ = o.ForEachNode(d, func(n Node) {
		var r, g, b float64
		for i := n.Start; i < n.End; i++ {
			c := o.cloud.Colors[o.order[i]]
			r += float64(c.R)
			g += float64(c.G)
			b += float64(c.B)
		}
		inv := 1 / float64(n.Count())
		dst = append(dst, pointcloud.Color{
			R: uint8(r*inv + 0.5),
			G: uint8(g*inv + 0.5),
			B: uint8(b*inv + 0.5),
		})
	})
	return dst
}

// colorBlockSize is the number of deltas per bit-packed block. Each block
// stores one bit-width byte followed by its deltas packed at that width,
// so smooth runs (small deltas) cost a fraction of a byte per value.
const colorBlockSize = 64

// appendColors appends the color section to dst: magic, leaf count, then
// each channel's packed delta blocks.
func appendColors(dst []byte, colors []pointcloud.Color) []byte {
	dst = append(dst, colorMagic[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(colors)))
	for ch := 0; ch < 3; ch++ {
		dst = appendPackedBlocks(dst, channelDeltas(colors, ch))
	}
	return dst
}

// channelDeltas returns the zigzag-encoded leaf-to-leaf deltas of one
// color channel in Morton order.
func channelDeltas(colors []pointcloud.Color, ch int) []uint32 {
	out := make([]uint32, len(colors))
	prev := int32(0)
	for i, c := range colors {
		var v int32
		switch ch {
		case 0:
			v = int32(c.R)
		case 1:
			v = int32(c.G)
		default:
			v = int32(c.B)
		}
		d := v - prev
		out[i] = uint32((d << 1) ^ (d >> 31)) // zigzag
		prev = v
	}
	return out
}

// appendPackedBlocks encodes deltas in blocks: per block one bit-width
// byte, then the block's values packed at that width (0 width = all-zero
// block, no payload).
func appendPackedBlocks(dst []byte, deltas []uint32) []byte {
	for start := 0; start < len(deltas); start += colorBlockSize {
		end := start + colorBlockSize
		if end > len(deltas) {
			end = len(deltas)
		}
		block := deltas[start:end]
		width := 0
		for _, v := range block {
			if w := bitsLen(v); w > width {
				width = w
			}
		}
		dst = append(dst, byte(width))
		if width == 0 {
			continue
		}
		var acc uint64
		var nbits int
		for _, v := range block {
			acc = acc<<uint(width) | uint64(v)
			nbits += width
			for nbits >= 8 {
				nbits -= 8
				dst = append(dst, byte(acc>>uint(nbits)))
			}
		}
		if nbits > 0 {
			dst = append(dst, byte(acc<<uint(8-nbits)))
		}
	}
	return dst
}

func bitsLen(v uint32) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// DecodedWithColors extends Decoded with per-leaf colors.
type DecodedWithColors struct {
	Decoded
	Colors []pointcloud.Color
}

// DeserializeWithColorsBytes decodes a combined geometry+attribute stream
// produced by SerializeWithColorsBytes. The stream must span data exactly;
// trailing bytes are corruption.
func DeserializeWithColorsBytes(data []byte) (*DecodedWithColors, error) {
	geo, pos, err := decodeGeometry(data)
	if err != nil {
		return nil, err
	}
	if len(data)-pos < 8 {
		return nil, fmt.Errorf("%w: header: %d of 8 bytes", ErrCorruptColors, len(data)-pos)
	}
	if !bytes.Equal(data[pos:pos+4], colorMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptColors)
	}
	n := int(binary.LittleEndian.Uint32(data[pos+4:]))
	pos += 8
	if n != len(geo.Keys) {
		return nil, fmt.Errorf("%w: %d colors for %d leaves", ErrColorCountMism, n, len(geo.Keys))
	}
	out := &DecodedWithColors{Decoded: geo, Colors: make([]pointcloud.Color, n)}
	for ch := 0; ch < 3; ch++ {
		if pos, err = readChannel(out.Colors, ch, data, pos); err != nil {
			return nil, fmt.Errorf("%w: channel %d: %v", ErrCorruptColors, ch, err)
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptColors, len(data)-pos)
	}
	return out, nil
}

// readChannel decodes channel ch of colors from the delta blocks that
// appendPackedBlocks wrote starting at data[pos], and returns the
// position just past them. Each block's packed bytes are bounds-checked
// once, before any value is cut from them.
func readChannel(colors []pointcloud.Color, ch int, data []byte, pos int) (int, error) {
	var vals [colorBlockSize]uint8
	var tail [colorBlockSize*16/8 + 8]byte
	prev := uint8(0)
	for start := 0; start < len(colors); start += colorBlockSize {
		block := colors[start:min(start+colorBlockSize, len(colors))]
		if pos >= len(data) {
			return pos, errors.New("color blocks end early")
		}
		width := uint(data[pos])
		pos++
		if width > 16 {
			return pos, errors.New("block bit width out of range")
		}
		size := (int(width)*len(block) + 7) / 8
		if size > len(data)-pos {
			return pos, errors.New("color blocks end early")
		}
		// Windows may read up to 7 bytes past the block; near the end of
		// data they read a padded copy instead.
		packed := data[pos:]
		if len(packed) < size+8 {
			packed = tail[:copy(tail[:], data[pos:pos+size])+8]
		}
		pos += size
		var ok bool
		if prev, ok = unpackDeltas(vals[:len(block)], packed, width, prev); !ok {
			return pos, errors.New("channel value out of range")
		}
		switch ch {
		case 0:
			for i := range block {
				block[i].R = vals[i]
			}
		case 1:
			for i := range block {
				block[i].G = vals[i]
			}
		default:
			for i := range block {
				block[i].B = vals[i]
			}
		}
	}
	return pos, nil
}

// unpackDeltas fills vals with the running sums from prev of the zigzag
// deltas packed at width bits in packed, and returns the last sum. Each
// delta is cut from a big-endian 64-bit window at its bit offset, which a
// width of at most 16 bits always fits, so packed must extend 7 bytes past
// the last delta. It reports false if a sum leaves [0, 255].
func unpackDeltas(vals []uint8, packed []byte, width uint, prev uint8) (uint8, bool) {
	if width == 0 {
		for i := range vals {
			vals[i] = prev
		}
		return prev, true
	}
	v := int32(prev)
	for i := range vals {
		off := uint(i) * width
		zz := uint32(binary.BigEndian.Uint64(packed[off/8:]) << (off % 8) >> (64 - width))
		v += int32(zz>>1) ^ -int32(zz&1) // un-zigzag
		if uint32(v) > 255 {
			return 0, false
		}
		vals[i] = uint8(v)
	}
	return uint8(v), true
}

// StreamSizeProfile measures the serialized stream size (bytes) per depth
// 1..MaxDepth(), with or without the color payload. This is the workload
// profile a(d) for network-bound offload scenarios: choosing depth d
// enqueues bytes(d) onto the uplink.
//
// Sizes are computed without materializing any stream: the geometry
// stream at depth d is exactly the header plus one occupancy byte per
// occupied node at every level above d, so it follows from the occupancy
// profile; the color payload size is accumulated from the per-block bit
// widths over a single reused leaf-color buffer. The results are
// byte-for-byte identical to serializing at every depth (pinned by
// TestStreamSizeProfileMatchesSerialization).
func (o *Octree) StreamSizeProfile(withColors bool) ([]int, error) {
	if withColors && !o.cloud.HasColors() {
		return nil, fmt.Errorf("depth 1: %w", ErrNoColors)
	}
	profile := o.profileSlice()
	sizes := make([]int, o.maxDepth+1)
	// Depth 0 (root only) ships a bare header.
	sizes[0] = headerSize
	occupancy := 0 // occupancy bytes above depth d: Σ profile[0..d-1]
	for d := 1; d <= o.maxDepth; d++ {
		occupancy += profile[d-1]
		sizes[d] = headerSize + occupancy
	}
	if !withColors {
		return sizes, nil
	}
	var colors []pointcloud.Color
	for d := 1; d <= o.maxDepth; d++ {
		colors = o.appendLeafColors(colors[:0], d)
		sizes[d] += colorStreamSize(colors)
	}
	return sizes, nil
}

// colorStreamSize returns the encoded size of the color section exactly
// as appendColors would emit it — header plus, per channel and 64-delta
// block, one width byte and the bit-packed payload — without building
// the stream.
func colorStreamSize(colors []pointcloud.Color) int {
	size := 8 // magic + uint32 count
	for ch := 0; ch < 3; ch++ {
		prev := int32(0)
		for start := 0; start < len(colors); start += colorBlockSize {
			end := start + colorBlockSize
			if end > len(colors) {
				end = len(colors)
			}
			width := 0
			for i := start; i < end; i++ {
				var v int32
				switch ch {
				case 0:
					v = int32(colors[i].R)
				case 1:
					v = int32(colors[i].G)
				default:
					v = int32(colors[i].B)
				}
				d := v - prev
				if w := bitsLen(uint32((d << 1) ^ (d >> 31))); w > width {
					width = w
				}
				prev = v
			}
			size += 1 + (width*(end-start)+7)/8
		}
	}
	return size
}
