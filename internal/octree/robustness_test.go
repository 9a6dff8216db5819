package octree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"qarv/internal/geom"
	"qarv/internal/pointcloud"
)

// Robustness: deserializers must reject arbitrary garbage and mutated
// streams without panicking (seeded fuzz-shaped corpora).

func TestDeserializeSurvivesRandomGarbage(t *testing.T) {
	rng := geom.NewRNG(201)
	for i := 0; i < 500; i++ {
		n := rng.Intn(1024)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on garbage %d: %v", i, r)
				}
			}()
			_, _ = DeserializeBytes(data)
			_, _ = DeserializeWithColorsBytes(data)
		}()
	}
}

func TestDeserializeSurvivesMagicPrefixedGarbage(t *testing.T) {
	rng := geom.NewRNG(202)
	for i := 0; i < 500; i++ {
		n := rng.Intn(512)
		data := make([]byte, headerSize+n)
		copy(data, serializeMagic[:])
		data[4] = 1                      // valid version
		data[5] = byte(rng.Intn(24) + 1) // plausible-ish depth
		for j := 6; j < len(data); j++ {
			data[j] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on header+garbage %d: %v", i, r)
				}
			}()
			_, _ = DeserializeBytes(data)
		}()
	}
}

func TestDeserializeSurvivesMutatedStream(t *testing.T) {
	c := smoothCloud(500, 203)
	o, err := Build(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := o.SerializeWithColorsBytes(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := geom.NewRNG(204)
	for i := 0; i < 300; i++ {
		mutated := bytes.Clone(valid)
		for m := 0; m <= rng.Intn(6); m++ {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %d: %v", i, r)
				}
			}()
			// Either a decode error or a (possibly different) valid
			// result — both acceptable; panics are not. A successful
			// decode must still satisfy basic sanity.
			dec, err := DeserializeWithColorsBytes(mutated)
			if err == nil && len(dec.Colors) != len(dec.Keys) {
				t.Fatalf("mutation %d: inconsistent decode", i)
			}
		}()
	}
}

func TestDeserializeDeepGarbageBoundedWork(t *testing.T) {
	// A stream of all-0xFF occupancy bytes at max depth explodes
	// breadth-first trees; the decoder is depth-first and must stop at
	// the stream's end with an error rather than hanging or panicking.
	data := make([]byte, headerSize)
	copy(data, serializeMagic[:])
	data[4] = 1
	data[5] = MaxDepth
	body := bytes.Repeat([]byte{0xFF}, 4096)
	if _, err := DeserializeBytes(append(data, body...)); err == nil {
		t.Fatal("truncated full-fanout stream must error")
	}
}

// forgeLeafCount returns a copy of the stream data with the header's
// leaf count replaced by n.
func forgeLeafCount(data []byte, n uint32) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[headerSize-4:], n)
	return out
}

func TestDeserializeForgedLeafCountBounded(t *testing.T) {
	// The decoder pre-sizes its keys from the header's leaf count; a
	// forged count must be capped by the payload (one key per byte), not
	// allocated as claimed (32 GiB here).
	o, err := Build(smoothCloud(500, 203), 7)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := o.SerializeWithColorsBytes(7)
	if err != nil {
		t.Fatal(err)
	}
	forged := forgeLeafCount(valid, 0xFFFFFFFF)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DeserializeWithColorsBytes(forged)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged leaf count: err = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("forged leaf count allocated %d bytes, want < 1 MiB", alloc)
	}

	// The same count in front of 256 KiB of arbitrary bytes (a one-leaf
	// chain, then junk) may reserve one 8-byte key per payload byte, not
	// the 8 keys per byte an occupancy byte could hold.
	body := bytes.Repeat([]byte{0x01}, 256<<10)
	junk := append(forged[:headerSize:headerSize], body...)
	runtime.ReadMemStats(&before)
	_, err = DeserializeWithColorsBytes(junk)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged leaf count on junk: err = %v, want ErrCorrupt", err)
	}
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(body)+4096); alloc > limit {
		t.Fatalf("forged leaf count on %d junk bytes allocated %d bytes, want <= %d", len(body), alloc, limit)
	}
}

// fullLastBlockStream returns a colored depth-2 stream of all 64 cells of
// a 4×4×4 grid: each channel is exactly one full 64-delta block of
// nonzero width (the colors all differ), so the last block ends at the
// last byte of the data.
func fullLastBlockStream(f *testing.F) []byte {
	c := &pointcloud.Cloud{}
	for i := 0; i < 64; i++ {
		p := geom.V(float64(i&3)+0.5, float64(i>>2&3)+0.5, float64(i>>4)+0.5)
		col := pointcloud.Color{R: uint8(7 * i), G: uint8(255 - 3*i), B: uint8(i * i)}
		c.Append(p, &col, nil)
	}
	o, err := Build(c, 2)
	if err != nil {
		f.Fatal(err)
	}
	data, err := o.SerializeWithColorsBytes(2)
	if err != nil {
		f.Fatal(err)
	}
	if dec, err := DeserializeWithColorsBytes(data); err != nil || len(dec.Keys) != colorBlockSize {
		f.Fatalf("grid stream: %v, %v; want %d leaves", dec, err, colorBlockSize)
	}
	return data
}
