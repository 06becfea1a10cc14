// Package netupdate implements the software-update protocol the paper
// motivates: a server that holds the release history of an image and
// streams in-place reconstructible deltas to limited network devices over
// low-bandwidth channels.
//
// Protocol (all messages are a one-byte type, a uvarint payload length and
// the payload):
//
//	device → server  HELLO   {flags, imageCRC, imageLen, capacity}
//	server → device  UPTODATE                    — image is current
//	                 DELTA   {delta file bytes}  — apply this in place
//	                 FULL    {image bytes}       — full-image degradation
//	                 ERROR   {message}           — e.g. unknown version
//	device → server  STATUS  {ok, imageCRC}
//	server → device  ACK     {ok}                — server verified the CRC
//
// The hello flags carry two bits: updating (an interrupted update is being
// resumed) and wantFull (the device asks for the whole current image
// instead of a delta — the degradation path after repeated delta
// failures or when the server does not know the device's version).
//
// A device that lost power mid-update reconnects with updating=true and the
// CRC of the version it was upgrading from; the server regenerates the same
// delta deterministically and the device resumes where it stopped. The
// final ACK closes the loop: a device whose flash was corrupted by a bad
// transfer learns about it immediately and can fall back to a full image.
//
// Every session runs on one stream of a protocol-v2 connection (package
// mux), which multiplexes many sessions over one TCP connection; a peer
// that sends session messages without the v2 handshake is refused.
package netupdate

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// message types.
const (
	msgHello    = 0x01
	msgUpToDate = 0x02
	msgDelta    = 0x03
	msgError    = 0x04
	msgStatus   = 0x05
	msgFull     = 0x06
	msgAck      = 0x07
)

// maxMessage bounds a single protocol message (delta and full-image
// payloads included).
const maxMessage = 1 << 30

// payloadChunk is the allocation granularity for buffered payload reads: a
// hostile length prefix can cost at most one idle chunk, never a
// wire-supplied amount of memory.
const payloadChunk = 1 << 20

// hello flag bits.
const (
	helloUpdating = 1 << 0
	helloWantFull = 1 << 1
)

// Protocol errors.
var (
	ErrUnknownVersion = errors.New("netupdate: device runs a version the server does not know")
	ErrProtocol       = errors.New("netupdate: protocol violation")
	// ErrMessageTooLarge reports a length prefix beyond the protocol's
	// hard message-size limit. It wraps ErrProtocol semantics: hostile or
	// corrupt framing, never a valid peer.
	ErrMessageTooLarge = errors.New("netupdate: message exceeds size limit")
	// ErrImageRejected reports that the server's final ACK was negative:
	// the device-computed CRC did not match the distributed version, so
	// the local image must be considered corrupt.
	ErrImageRejected = errors.New("netupdate: server rejected the reconstructed image CRC")
)

// hello is the device's opening message.
type hello struct {
	Updating bool
	WantFull bool
	ImageCRC uint32
	ImageLen int64
	Capacity int64
}

// status is the device's closing message.
type status struct {
	OK       bool
	ImageCRC uint32
}

// writeMsg frames one message into w. The header is appended to w's
// free buffer space, so framing allocates nothing.
func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	hdr := binary.AppendUvarint(append(w.AvailableBuffer(), typ), uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsgHeader reads a message type and payload length.
func readMsgHeader(r io.ByteReader) (byte, int64, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, 0, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad length: %v", ErrProtocol, err)
	}
	if n > maxMessage {
		return 0, 0, fmt.Errorf("%w: %w: message of %d bytes (limit %d)", ErrProtocol, ErrMessageTooLarge, n, int64(maxMessage))
	}
	return typ, int64(n), nil
}

// readPayload buffers n payload bytes, growing only as data actually
// arrives. A peer that announces a huge length but never sends it costs at
// most one payloadChunk of memory, not n bytes — the length prefix is a
// claim, never an allocation instruction.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	if n <= payloadChunk {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, err)
		}
		return payload, nil
	}
	buf := make([]byte, 0, payloadChunk)
	tmp := make([]byte, payloadChunk)
	for int64(len(buf)) < n {
		k := n - int64(len(buf))
		if k > payloadChunk {
			k = payloadChunk
		}
		if _, err := io.ReadFull(r, tmp[:k]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, err)
		}
		buf = append(buf, tmp[:k]...)
	}
	return buf, nil
}

// readMsg reads a full message of an expected type. A payload that fits
// r's buffer is returned in place, valid until the next read from r, so
// the small control messages cost no allocation; a larger one is copied
// out by readPayload.
func readMsg(r *bufio.Reader, wantType byte) ([]byte, error) {
	typ, n, err := readMsgHeader(r)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if n <= int64(r.Size()) {
		if payload, err = r.Peek(int(n)); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, err)
		}
		_, _ = r.Discard(int(n))
	} else if payload, err = readPayload(r, n); err != nil {
		return nil, err
	}
	if typ == msgError {
		return nil, &ServerError{Msg: string(payload)}
	}
	if typ != wantType {
		return nil, fmt.Errorf("%w: got message %#x, want %#x", ErrProtocol, typ, wantType)
	}
	return payload, nil
}

// ServerError is an ERROR message received from the peer: the server
// inspected the session and rejected it (unknown version, capacity,
// internal failure). It is a session-level verdict, not a transport fault,
// so retrying the same delta session is pointless; the degradation ladder
// moves to a full-image transfer instead.
type ServerError struct {
	Msg string
}

// Error implements error.
func (e *ServerError) Error() string { return "netupdate: server error: " + e.Msg }

func encodeHello(h hello) []byte {
	buf := make([]byte, 0, 32)
	b := byte(0)
	if h.Updating {
		b |= helloUpdating
	}
	if h.WantFull {
		b |= helloWantFull
	}
	buf = append(buf, b)
	buf = binary.BigEndian.AppendUint32(buf, h.ImageCRC)
	buf = binary.AppendUvarint(buf, uint64(h.ImageLen))
	buf = binary.AppendUvarint(buf, uint64(h.Capacity))
	return buf
}

func decodeHello(p []byte) (hello, error) {
	var h hello
	if len(p) < 5 {
		return h, fmt.Errorf("%w: short hello", ErrProtocol)
	}
	if p[0]&^(helloUpdating|helloWantFull) != 0 {
		return h, fmt.Errorf("%w: unknown hello flags %#x", ErrProtocol, p[0])
	}
	h.Updating = p[0]&helloUpdating != 0
	h.WantFull = p[0]&helloWantFull != 0
	h.ImageCRC = binary.BigEndian.Uint32(p[1:5])
	rest := p[5:]
	v, n := binary.Uvarint(rest)
	if n <= 0 {
		return h, fmt.Errorf("%w: hello image length", ErrProtocol)
	}
	h.ImageLen = int64(v)
	rest = rest[n:]
	v, n = binary.Uvarint(rest)
	if n <= 0 {
		return h, fmt.Errorf("%w: hello capacity", ErrProtocol)
	}
	h.Capacity = int64(v)
	return h, nil
}

func encodeStatus(s status) []byte {
	buf := make([]byte, 0, 8)
	b := byte(0)
	if s.OK {
		b = 1
	}
	buf = append(buf, b)
	buf = binary.BigEndian.AppendUint32(buf, s.ImageCRC)
	return buf
}

func decodeStatus(p []byte) (status, error) {
	if len(p) != 5 {
		return status{}, fmt.Errorf("%w: short status", ErrProtocol)
	}
	return status{OK: p[0] == 1, ImageCRC: binary.BigEndian.Uint32(p[1:5])}, nil
}

func encodeAck(ok bool) []byte {
	if ok {
		return []byte{1}
	}
	return []byte{0}
}

func decodeAck(p []byte) (bool, error) {
	if len(p) != 1 {
		return false, fmt.Errorf("%w: short ack", ErrProtocol)
	}
	return p[0] == 1, nil
}
