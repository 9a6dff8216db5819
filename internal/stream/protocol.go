// Package stream is the wire layer of a distributed qarv deployment: a
// device ships depth-controlled octree streams to an edge renderer over
// TCP and learns its uplink backlog from acknowledgements. The controller
// runs on the device against that backlog — the live, networked version
// of the paper's queue Q(t), demonstrating the "fully distributed, no
// side information" claim on a real socket rather than in the simulator.
//
// Wire format (all little-endian):
//
//	magic "QSTR" | version u8 | type u8 | length u32 | payload
//
//	type 1 (frame): frameID u32 | depth u8 | stream bytes
//	type 2 (ack):   frameID u32 | servedBytes u64 | allocatedBps u64
//
// Version 2 extended the ack with allocatedBps, the sender's current
// share of the edge's uplink budget in bytes/second — the ack-carried
// backpressure signal a device-side controller can calibrate against.
// Writers emit version 2 and readers reject any other version with
// ErrBadVersion.
package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Message types.
const (
	msgFrame byte = 1
	msgAck   byte = 2
)

// ProtocolVersion is the only wire version writers emit and readers
// accept.
const ProtocolVersion byte = 2

// protocol limits: a frame payload is bounded to keep a hostile peer from
// forcing unbounded allocation, and reads above initialPayloadAlloc grow
// incrementally so a forged length field cannot pre-allocate 64 MiB from
// a ten-byte message.
const (
	maxPayload          = 64 << 20 // 64 MiB
	initialPayloadAlloc = 64 << 10 // grow-from-here cap for large reads
	headerLen           = 4 + 1 + 1 + 4
	frameMetaLen        = 4 + 1
	ackPayloadLen       = 4 + 8 + 8
)

var wireMagic = [4]byte{'Q', 'S', 'T', 'R'}

// Protocol errors; matchable with errors.Is.
var (
	ErrBadWireMagic   = errors.New("stream: bad wire magic")
	ErrBadVersion     = errors.New("stream: unsupported protocol version")
	ErrBadMessageType = errors.New("stream: unknown message type")
	ErrOversized      = errors.New("stream: payload exceeds protocol limit")
	ErrShortMessage   = errors.New("stream: truncated message")
)

// Frame is one AR frame on the wire.
type Frame struct {
	ID      uint32
	Depth   uint8
	Payload []byte // serialized octree stream (geometry + colors)
}

// Ack acknowledges a processed frame.
type Ack struct {
	FrameID     uint32
	ServedBytes uint64 // cumulative bytes the server has fully processed
	// AllocatedBps is the sender's current share of the edge's shared
	// uplink budget in bytes/second — zero on an unpaced server. Devices
	// use it as the ack-carried backpressure signal alongside the
	// unacked-byte backlog.
	AllocatedBps uint64
}

// writeMessage frames and writes one message.
func writeMessage(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes", ErrOversized, len(payload))
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, wireMagic[:]...)
	hdr = append(hdr, ProtocolVersion, msgType)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMessage reads one message and returns its type and payload.
func readMessage(r io.Reader) (byte, []byte, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err // io.EOF passes through for clean shutdown
	}
	if [4]byte(hdr[:4]) != wireMagic {
		return 0, nil, ErrBadWireMagic
	}
	if version := hdr[4]; version != ProtocolVersion {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	msgType := hdr[5]
	if msgType != msgFrame && msgType != msgAck {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadMessageType, msgType)
	}
	n := binary.LittleEndian.Uint32(hdr[6:])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrOversized, n)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrShortMessage, err)
	}
	return msgType, payload, nil
}

// readPayload reads exactly n payload bytes. Small payloads are read
// into one allocation; larger claims grow as bytes actually arrive, so a
// peer that forges a huge length field but sends nothing costs at most
// initialPayloadAlloc, not maxPayload.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= initialPayloadAlloc {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	var buf bytes.Buffer
	buf.Grow(initialPayloadAlloc)
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFrame sends a frame message.
func WriteFrame(w io.Writer, f Frame) error {
	payload := make([]byte, 0, frameMetaLen+len(f.Payload))
	payload = binary.LittleEndian.AppendUint32(payload, f.ID)
	payload = append(payload, f.Depth)
	payload = append(payload, f.Payload...)
	return writeMessage(w, msgFrame, payload)
}

// WriteAck sends an acknowledgement.
func WriteAck(w io.Writer, a Ack) error {
	payload := make([]byte, 0, ackPayloadLen)
	payload = binary.LittleEndian.AppendUint32(payload, a.FrameID)
	payload = binary.LittleEndian.AppendUint64(payload, a.ServedBytes)
	payload = binary.LittleEndian.AppendUint64(payload, a.AllocatedBps)
	return writeMessage(w, msgAck, payload)
}

// ReadMessage reads the next frame or ack; exactly one of the returns is
// non-nil on success.
func ReadMessage(r io.Reader) (*Frame, *Ack, error) {
	msgType, payload, err := readMessage(r)
	if err != nil {
		return nil, nil, err
	}
	switch msgType {
	case msgFrame:
		if len(payload) < frameMetaLen {
			return nil, nil, ErrShortMessage
		}
		return &Frame{
			ID:      binary.LittleEndian.Uint32(payload),
			Depth:   payload[4],
			Payload: payload[frameMetaLen:],
		}, nil, nil
	case msgAck:
		if len(payload) != ackPayloadLen {
			return nil, nil, ErrShortMessage
		}
		return nil, &Ack{
			FrameID:      binary.LittleEndian.Uint32(payload),
			ServedBytes:  binary.LittleEndian.Uint64(payload[4:]),
			AllocatedBps: binary.LittleEndian.Uint64(payload[12:]),
		}, nil
	default:
		return nil, nil, ErrBadMessageType
	}
}
