package octree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

// The reference decoder: the io.Reader implementation the byte-slice
// decoders replaced, kept unchanged apart from the ref prefix. The
// differential fuzz target below holds DeserializeBytes and
// DeserializeWithColorsBytes to it on arbitrary input.

func refDeserialize(r io.Reader) (*Decoded, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], serializeMagic[:]) {
		return nil, ErrBadMagic
	}
	if hdr[4] != 1 {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, hdr[4])
	}
	depth := int(hdr[5])
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("%w: depth %d", ErrDepthTooDeep, depth)
	}
	vals := make([]float64, 6)
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
	br := &refByteReader{r: r}
	refDecodeNode(br, dec, 0, 0)
	if br.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, br.err)
	}
	if uint32(len(dec.Keys)) != wantLeaves {
		return nil, fmt.Errorf("%w: decoded %d leaves, header says %d",
			ErrCorrupt, len(dec.Keys), wantLeaves)
	}
	return dec, nil
}

type refByteReader struct {
	r   io.Reader
	err error
	buf [1]byte
}

func (b *refByteReader) readByte() byte {
	if b.err != nil {
		return 0
	}
	_, b.err = io.ReadFull(b.r, b.buf[:])
	return b.buf[0]
}

func refDecodeNode(br *refByteReader, dec *Decoded, prefix uint64, level int) {
	if br.err != nil {
		return
	}
	if level == dec.Depth {
		dec.Keys = append(dec.Keys, prefix)
		return
	}
	mask := br.readByte()
	if br.err != nil {
		return
	}
	if mask == 0 {
		br.err = errors.New("empty occupancy byte for occupied node")
		return
	}
	for c := 0; c < 8; c++ {
		if mask&(1<<uint(c)) != 0 {
			refDecodeNode(br, dec, prefix<<3|uint64(c), level+1)
		}
	}
}

func refDeserializeWithColors(r io.Reader) (*DecodedWithColors, error) {
	geo, err := refDeserialize(r)
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorruptColors, err)
	}
	if !bytes.Equal(hdr[:4], colorMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptColors)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n != len(geo.Keys) {
		return nil, fmt.Errorf("%w: %d colors for %d leaves", ErrColorCountMism, n, len(geo.Keys))
	}
	br := &refBlockReader{r: r}
	out := &DecodedWithColors{Decoded: *geo, Colors: make([]pointcloud.Color, n)}
	for ch := 0; ch < 3; ch++ {
		deltas, err := br.readBlocks(n)
		if err != nil {
			return nil, fmt.Errorf("%w: channel %d: %v", ErrCorruptColors, ch, err)
		}
		prev := int32(0)
		for i, zz := range deltas {
			d := int32(zz>>1) ^ -int32(zz&1) // un-zigzag
			v := prev + d
			if v < 0 || v > 255 {
				return nil, fmt.Errorf("%w: channel value %d out of range", ErrCorruptColors, v)
			}
			switch ch {
			case 0:
				out.Colors[i].R = uint8(v)
			case 1:
				out.Colors[i].G = uint8(v)
			default:
				out.Colors[i].B = uint8(v)
			}
			prev = v
		}
	}
	return out, nil
}

type refBlockReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *refBlockReader) readByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}

func (b *refBlockReader) readBlocks(n int) ([]uint32, error) {
	out := make([]uint32, 0, n)
	for len(out) < n {
		count := colorBlockSize
		if remaining := n - len(out); remaining < count {
			count = remaining
		}
		widthByte, err := b.readByte()
		if err != nil {
			return nil, err
		}
		width := int(widthByte)
		if width > 16 {
			return nil, errors.New("block bit width out of range")
		}
		if width == 0 {
			for i := 0; i < count; i++ {
				out = append(out, 0)
			}
			continue
		}
		var acc uint64
		var nbits int
		for i := 0; i < count; i++ {
			for nbits < width {
				by, err := b.readByte()
				if err != nil {
					return nil, err
				}
				acc = acc<<8 | uint64(by)
				nbits += 8
			}
			nbits -= width
			out = append(out, uint32(acc>>uint(nbits))&((1<<uint(width))-1))
		}
	}
	return out, nil
}

// refDecodeExact runs a reference decoder over data and adds the one rule
// the byte-slice decoders enforce on top: the stream must consume data
// exactly, so leftover bytes are rejected under the entry point's
// corruption sentinel.
func refDecodeExact[T any](data []byte, decode func(io.Reader) (T, error), trailing error) (T, error) {
	r := bytes.NewReader(data)
	out, err := decode(r)
	if err == nil && r.Len() != 0 {
		var zero T
		return zero, fmt.Errorf("%w: %d trailing bytes", trailing, r.Len())
	}
	return out, err
}

// decodeSentinels are the errors a caller can match on a failed decode.
var decodeSentinels = []error{ErrBadMagic, ErrCorrupt, ErrDepthTooDeep, ErrCorruptColors, ErrColorCountMism}

// sameDecode reports whether two decoder outcomes agree: both fail under
// the same sentinels, or both succeed with equal results. The box is
// compared by bit pattern so that NaN coordinates, which arbitrary headers
// can carry, compare equal.
func sameDecode(got *DecodedWithColors, gotErr error, want *DecodedWithColors, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		for _, s := range decodeSentinels {
			if errors.Is(gotErr, s) != errors.Is(wantErr, s) {
				return false
			}
		}
		return true
	}
	if boxBits(got.Box) != boxBits(want.Box) {
		return false
	}
	g, w := *got, *want
	g.Box, w.Box = geom.AABB{}, geom.AABB{}
	return reflect.DeepEqual(g, w)
}

func boxBits(b geom.AABB) [6]uint64 {
	var out [6]uint64
	for i, f := range [...]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
		out[i] = math.Float64bits(f)
	}
	return out
}

// FuzzDeserializeWithColors is the differential check on the wire
// decoders: on every input, DeserializeBytes and DeserializeWithColorsBytes
// accept exactly what the reference accepts, return equal results, and
// reject under the same sentinels. The seeds are valid streams at every
// depth, with and without colors, plus truncations, a trailing byte and
// single-byte mutations of them; a forged header leaf count; streams at
// depth 1 and MaxDepth, the decoder's first and last stack frames; and a
// stream whose last color block is full and ends exactly at the end of
// the data, where the unpacker's 64-bit windows would overrun.
func FuzzDeserializeWithColors(f *testing.F) {
	o, err := Build(smoothCloud(150, 5), 7)
	if err != nil {
		f.Fatal(err)
	}
	full7, err := o.SerializeWithColorsBytes(7)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forgeLeafCount(full7, 0xFFFFFFFF))
	deep, err := Build(smoothCloud(40, 6), MaxDepth)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []int{1, MaxDepth} {
		full, err := deep.SerializeWithColorsBytes(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(full)
	}
	f.Add(fullLastBlockStream(f))
	for d := 1; d <= 7; d++ {
		full, err := o.SerializeWithColorsBytes(d)
		if err != nil {
			f.Fatal(err)
		}
		geo, err := o.SerializeBytes(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(full)
		f.Add(geo)
		f.Add(append(bytes.Clone(full), 0))
		for _, cut := range []int{headerSize - 1, len(geo) - 1, len(geo) + 4, len(full) - 1} {
			if cut > 0 && cut < len(full) {
				f.Add(full[:cut])
			}
		}
		for _, at := range []int{4, 5, headerSize - 1, headerSize, len(geo) + 4, len(geo) + 8, len(full) - 1} {
			if at < len(full) {
				mutated := bytes.Clone(full)
				mutated[at] ^= 0xA5
				f.Add(mutated)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		geo, geoErr := DeserializeBytes(data)
		refGeo, refGeoErr := refDecodeExact(data, refDeserialize, ErrCorrupt)
		var got, want *DecodedWithColors
		if geoErr == nil {
			got = &DecodedWithColors{Decoded: *geo}
		}
		if refGeoErr == nil {
			want = &DecodedWithColors{Decoded: *refGeo}
		}
		if !sameDecode(got, geoErr, want, refGeoErr) {
			t.Fatalf("DeserializeBytes: (%v, %v), reference (%v, %v)", got, geoErr, want, refGeoErr)
		}
		full, fullErr := DeserializeWithColorsBytes(data)
		refFull, refFullErr := refDecodeExact(data, refDeserializeWithColors, ErrCorruptColors)
		if !sameDecode(full, fullErr, refFull, refFullErr) {
			t.Fatalf("DeserializeWithColorsBytes: (%v, %v), reference (%v, %v)", full, fullErr, refFull, refFullErr)
		}
	})
}
