package stream

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// seedMessages returns representative wire messages for the fuzz corpus:
// valid v2 frames and acks, a retired protocol-v1 ack (which readers
// must reject with ErrBadVersion), and the classic malformed shapes (bad
// magic, bad version, bad type, oversized length, truncated payload,
// huge claimed length with no body).
func seedMessages() [][]byte {
	var frame bytes.Buffer
	if err := WriteFrame(&frame, Frame{ID: 7, Depth: 9, Payload: []byte("octree bits")}); err != nil {
		panic(err)
	}
	var ack bytes.Buffer
	if err := WriteAck(&ack, Ack{FrameID: 7, ServedBytes: 4096, AllocatedBps: 250_000}); err != nil {
		panic(err)
	}
	// A protocol-v1 ack (12-byte payload, no allocated rate): no longer
	// accepted on the wire.
	v1ack := []byte("QSTR\x01\x02\x0c\x00\x00\x00")
	v1ack = binary.LittleEndian.AppendUint32(v1ack, 7)
	v1ack = binary.LittleEndian.AppendUint64(v1ack, 4096)
	var empty bytes.Buffer
	if err := WriteFrame(&empty, Frame{ID: 0, Depth: 0, Payload: nil}); err != nil {
		panic(err)
	}
	return [][]byte{
		frame.Bytes(),
		ack.Bytes(),
		v1ack,
		empty.Bytes(),
		[]byte("XXXX\x02\x01\x00\x00\x00\x00"),             // bad magic
		[]byte("QSTR\x07\x01\x00\x00\x00\x00"),             // bad version
		[]byte("QSTR\x02\x09\x00\x00\x00\x00"),             // bad type
		[]byte("QSTR\x02\x01\xff\xff\xff\xff"),             // oversized length
		[]byte("QSTR\x02\x01\xff\xff\xff\x03"),             // huge claimed length, no body
		frame.Bytes()[:len(frame.Bytes())-3],               // truncated payload
		[]byte("QSTR\x02\x02\x05\x00\x00\x00\x01\x02\x03"), // short ack
	}
}

// FuzzReadMessage drives the wire decoder with arbitrary bytes. The
// invariants: never panic, never allocate beyond the bytes actually
// present, exactly one of (frame, ack) on success, only version-2 input
// decodes, and every decoded message re-encodes byte-identically.
func FuzzReadMessage(f *testing.F) {
	for _, seed := range seedMessages() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frame, ack, err := ReadMessage(r)
		if err != nil {
			if frame != nil || ack != nil {
				t.Fatalf("non-nil message alongside error %v", err)
			}
			return
		}
		if (frame == nil) == (ack == nil) {
			t.Fatalf("want exactly one of frame/ack, got %v %v", frame, ack)
		}
		consumed := len(data) - r.Len()
		if frame != nil && len(frame.Payload) > consumed {
			t.Fatalf("frame payload %d bytes from %d consumed input", len(frame.Payload), consumed)
		}

		if data[4] != ProtocolVersion {
			t.Fatalf("decoded a version-%d message", data[4])
		}

		// Re-encode and require byte-identity with the consumed prefix.
		var buf bytes.Buffer
		if frame != nil {
			if err := WriteFrame(&buf, *frame); err != nil {
				t.Fatalf("re-encode frame: %v", err)
			}
		} else {
			if err := WriteAck(&buf, *ack); err != nil {
				t.Fatalf("re-encode ack: %v", err)
			}
		}
		if !bytes.Equal(buf.Bytes(), data[:consumed]) {
			t.Fatalf("v2 round trip not byte-identical:\nin  %x\nout %x", data[:consumed], buf.Bytes())
		}

		// The re-encoding must itself decode to an equal message.
		frame2, ack2, err := ReadMessage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		switch {
		case frame != nil:
			if frame2 == nil || frame2.ID != frame.ID || frame2.Depth != frame.Depth || !bytes.Equal(frame2.Payload, frame.Payload) {
				t.Fatalf("frame round trip mismatch: %+v vs %+v", frame, frame2)
			}
		default:
			if ack2 == nil || *ack2 != *ack {
				t.Fatalf("ack round trip mismatch: %+v vs %+v", ack, ack2)
			}
		}
	})
}
