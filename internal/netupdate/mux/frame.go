// Package mux implements wire protocol v2 of the update service: a
// framed, versioned transport that multiplexes many concurrent update
// streams over one reliable connection.
//
// Every frame starts with a fixed 12-byte header:
//
//	+-------+---------+----------+-------+-------------+------------+
//	| magic | version | msg-type | flags | stream-id   | length     |
//	| 0xD5  | 0x02    | 1 byte   | 1 B   | 4 bytes BE  | 4 bytes BE |
//	+-------+---------+----------+-------+-------------+------------+
//
// followed by length payload bytes. The magic byte collides with no
// session message type (0x01..0x07), so a peer that skips the transport
// and speaks the session protocol directly fails the handshake on its
// first byte.
//
// Payload handling is keyed by msg-type: control frames — SETTINGS, SYN,
// FIN, RST, WINDOW, GOAWAY — are length-checked against a per-type limit
// and decoded into a value-typed control body by one switch
// (decodeControl), while DATA payloads bypass decoding entirely and
// stream straight into the receiving stream's ring buffer, keeping the
// data path allocation-free.
//
// Stream 0 carries connection-level control only. Streams opened by the
// connection's initiating side (the device/client) use odd ids, counting
// up from 1; an id is never reused within a connection. Each stream is
// flow controlled by a credit window the receiver advertises in its
// SETTINGS and replenishes with WINDOW frames as the application drains
// data, so a slow consumer exerts backpressure on its peer instead of
// buffering without bound.
package mux

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire constants.
const (
	// Magic is the first byte of every v2 frame.
	Magic = 0xD5
	// Version is the protocol version this package speaks.
	Version = 2
	// HeaderLen is the fixed frame header size.
	HeaderLen = 12
)

// Frame types.
const (
	// FrameSettings opens a connection: each side sends one SETTINGS
	// frame advertising its receive limits before anything else.
	FrameSettings = 0x01
	// FrameSyn opens a stream (empty payload).
	FrameSyn = 0x02
	// FrameData carries application bytes on a stream.
	FrameData = 0x03
	// FrameFin half-closes a stream: the sender is done writing
	// (empty payload).
	FrameFin = 0x04
	// FrameRst aborts a stream (payload: 4-byte BE code).
	FrameRst = 0x05
	// FrameWindow grants receive-window credit on a stream
	// (payload: 4-byte BE credit).
	FrameWindow = 0x06
	// FrameGoAway reports a fatal connection error before closing
	// (payload: 4-byte BE code, then an optional UTF-8 message).
	FrameGoAway = 0x07
)

// RST / GOAWAY codes.
const (
	// CodeCancel aborts a stream whose local end was closed early.
	CodeCancel = 1
	// CodeRefused rejects a SYN that exceeds the stream limit.
	CodeRefused = 2
	// CodeProtocol reports a peer protocol violation.
	CodeProtocol = 3
)

// maxControlPayload bounds every non-DATA payload. Control bodies are a
// handful of varints or a short message; anything bigger is hostile.
const maxControlPayload = 1 << 10

// absoluteMaxFrame bounds the negotiable per-DATA-frame payload size.
const absoluteMaxFrame = 1 << 24

// Typed protocol errors. All terminal connection errors wrap ErrProtocol
// so callers can classify without enumerating causes.
var (
	// ErrProtocol is the base class for hostile or corrupt framing.
	ErrProtocol = errors.New("mux: protocol violation")
	// ErrBadMagic reports a frame that does not start with Magic: the
	// peer is not speaking protocol v2 (or the connection desynchronized,
	// which v2 treats as fatal rather than guessing at a resync point).
	ErrBadMagic = fmt.Errorf("%w: bad magic byte", ErrProtocol)
	// ErrVersionMismatch reports a peer speaking an unknown protocol
	// version.
	ErrVersionMismatch = fmt.Errorf("%w: unsupported protocol version", ErrProtocol)
	// ErrUnknownFrameType reports a msg-type this protocol does not define.
	ErrUnknownFrameType = fmt.Errorf("%w: unknown frame type", ErrProtocol)
	// ErrFrameTooLarge reports a length field beyond the negotiated (or
	// absolute) payload bound. The length field is a claim, never an
	// allocation instruction: the connection fails before any
	// wire-claimed memory is reserved.
	ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds size limit", ErrProtocol)
	// ErrUnknownStream reports a frame addressed to a stream id that was
	// never opened on this connection.
	ErrUnknownStream = fmt.Errorf("%w: frame for unknown stream", ErrProtocol)
	// ErrStreamReuse reports a SYN for a stream id that is already live
	// or was already retired; ids are never reused within a connection.
	ErrStreamReuse = fmt.Errorf("%w: stream id reused", ErrProtocol)
	// ErrFlowControl reports a peer that overran the advertised receive
	// window or overflowed the send-credit accumulator.
	ErrFlowControl = fmt.Errorf("%w: flow control violation", ErrProtocol)
)

// Stream and transport lifecycle errors (not framing violations).
var (
	// ErrClosed reports use of a closed transport or stream.
	ErrClosed = errors.New("mux: connection closed")
	// ErrStreamReset reports a stream aborted by a peer RST or a
	// transport failure.
	ErrStreamReset = errors.New("mux: stream reset")
	// ErrStreamRefused reports a SYN the peer rejected for exceeding its
	// stream limit; the caller may retry on another connection.
	ErrStreamRefused = errors.New("mux: stream refused by peer")
	// ErrGoAway reports a connection the peer shut down deliberately.
	ErrGoAway = errors.New("mux: peer sent GOAWAY")
)

// header is a decoded frame header.
type header struct {
	typ    byte
	flags  byte
	stream uint32
	length uint32
}

// putHeader marshals a frame header into b.
//
//ipvet:allocfree
func putHeader(b []byte, typ, flags byte, stream, length uint32) {
	b[0] = Magic
	b[1] = Version
	b[2] = typ
	b[3] = flags
	binary.BigEndian.PutUint32(b[4:8], stream)
	binary.BigEndian.PutUint32(b[8:12], length)
}

// parseHeader validates and decodes a frame header. It checks only what
// every frame must satisfy — magic, version, flag bits, the absolute
// length cap — leaving type- and state-dependent validation (negotiated
// size bounds, stream liveness) to the transport.
//
//ipvet:allocfree
func parseHeader(b []byte) (header, error) {
	var h header
	if b[0] != Magic {
		return h, ErrBadMagic
	}
	if b[1] != Version {
		return h, ErrVersionMismatch
	}
	if b[3] != 0 {
		// All flag bits are reserved in v2; a set bit is corruption or a
		// speaker of some future dialect this side cannot interpret.
		return h, errReservedFlags
	}
	h.typ = b[2]
	h.flags = b[3]
	h.stream = binary.BigEndian.Uint32(b[4:8])
	h.length = binary.BigEndian.Uint32(b[8:12])
	if h.length > absoluteMaxFrame {
		return h, errAbsoluteFrame
	}
	return h, nil
}

// Preconstructed so parseHeader stays allocation-free even while
// rejecting hostile frames (a flood of bad headers must not cost heap).
var (
	errReservedFlags = fmt.Errorf("%w: reserved flag bits set", ErrProtocol)
	errAbsoluteFrame = fmt.Errorf("%w: payload beyond the absolute frame limit", ErrFrameTooLarge)
)

// control is the decoded body of a control frame. It is a value type so
// decodeControl can return one without heap allocation.
type control struct {
	settings Settings // FrameSettings
	credit   uint32   // FrameWindow
	code     uint32   // FrameRst, FrameGoAway
	msg      string   // FrameGoAway (allocates; GOAWAY is terminal anyway)
}

// controlMaxLen returns the largest payload control frame type typ
// accepts, checked before the payload is read, and false when typ is not
// a control frame. DATA is not: its payloads stream directly into the
// receiving stream's buffer.
//
//ipvet:allocfree
func controlMaxLen(typ byte) (int, bool) {
	switch typ {
	case FrameSyn, FrameFin:
		return 0, true
	case FrameRst, FrameWindow:
		return 4, true
	case FrameSettings, FrameGoAway:
		return maxControlPayload, true
	}
	return 0, false
}

// decodeControl validates and decodes the payload of a control frame of
// type typ. The payload is only valid during the call and is not
// retained.
func decodeControl(typ byte, p []byte) (control, error) {
	switch typ {
	case FrameSettings:
		return decodeSettings(p)
	case FrameSyn, FrameFin:
		if len(p) != 0 {
			return control{}, fmt.Errorf("%w: unexpected payload on empty-bodied frame", ErrProtocol)
		}
		return control{}, nil
	case FrameRst:
		if len(p) != 4 {
			return control{}, fmt.Errorf("%w: RST payload must be 4 bytes, got %d", ErrProtocol, len(p))
		}
		return control{code: binary.BigEndian.Uint32(p)}, nil
	case FrameWindow:
		if len(p) != 4 {
			return control{}, fmt.Errorf("%w: WINDOW payload must be 4 bytes, got %d", ErrProtocol, len(p))
		}
		credit := binary.BigEndian.Uint32(p)
		if credit == 0 {
			return control{}, fmt.Errorf("%w: zero-credit WINDOW grant", ErrFlowControl)
		}
		return control{credit: credit}, nil
	case FrameGoAway:
		// A 4-byte code plus an optional message.
		if len(p) < 4 {
			return control{}, fmt.Errorf("%w: short GOAWAY payload", ErrProtocol)
		}
		return control{code: binary.BigEndian.Uint32(p), msg: string(p[4:])}, nil
	}
	return control{}, fmt.Errorf("%w: %#x", ErrUnknownFrameType, typ)
}

// Settings are one side's advertised receive limits, exchanged in the
// connection's opening SETTINGS frames. Each field bounds what the
// advertising side is willing to accept; the peer must respect them.
type Settings struct {
	// MaxStreams caps concurrently open streams on the connection.
	MaxStreams int
	// InitialWindow is the per-stream receive window in bytes: the
	// credit a sender starts with, replenished by WINDOW frames.
	InitialWindow int
	// MaxFrame is the largest DATA payload accepted in one frame.
	MaxFrame int
	// AcceptBacklog bounds accepted-but-unclaimed streams on the
	// listening side (local only; not transmitted).
	AcceptBacklog int
}

// Default settings.
const (
	DefaultMaxStreams    = 1024
	DefaultInitialWindow = 256 << 10
	DefaultMaxFrame      = 16 << 10
	DefaultAcceptBacklog = 128
)

// withDefaults fills unset fields and clamps the negotiable ones to
// their absolute bounds.
func (s Settings) withDefaults() Settings {
	if s.MaxStreams <= 0 {
		s.MaxStreams = DefaultMaxStreams
	}
	if s.InitialWindow <= 0 {
		s.InitialWindow = DefaultInitialWindow
	}
	if s.MaxFrame <= 0 {
		s.MaxFrame = DefaultMaxFrame
	}
	if s.MaxFrame > absoluteMaxFrame {
		s.MaxFrame = absoluteMaxFrame
	}
	if s.InitialWindow < s.MaxFrame {
		// A window smaller than one frame would deadlock the sender.
		s.InitialWindow = s.MaxFrame
	}
	if s.AcceptBacklog <= 0 {
		s.AcceptBacklog = DefaultAcceptBacklog
	}
	return s
}

// settings keys (uvarint key/value pairs in the SETTINGS payload).
const (
	settingMaxStreams    = 1
	settingInitialWindow = 2
	settingMaxFrame      = 3
)

// encodeSettings marshals the transmitted subset of s.
func encodeSettings(s Settings) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.AppendUvarint(buf, settingMaxStreams)
	buf = binary.AppendUvarint(buf, uint64(s.MaxStreams))
	buf = binary.AppendUvarint(buf, settingInitialWindow)
	buf = binary.AppendUvarint(buf, uint64(s.InitialWindow))
	buf = binary.AppendUvarint(buf, settingMaxFrame)
	buf = binary.AppendUvarint(buf, uint64(s.MaxFrame))
	return buf
}

// decodeSettings decodes a SETTINGS payload. Unknown keys are skipped so
// a future dialect can add settings without breaking v2 peers; a payload
// missing a required limit is rejected.
func decodeSettings(p []byte) (control, error) {
	var s Settings
	for len(p) > 0 {
		key, n := binary.Uvarint(p)
		if n <= 0 {
			return control{}, fmt.Errorf("%w: truncated SETTINGS key", ErrProtocol)
		}
		p = p[n:]
		val, n := binary.Uvarint(p)
		if n <= 0 {
			return control{}, fmt.Errorf("%w: truncated SETTINGS value", ErrProtocol)
		}
		p = p[n:]
		if val > absoluteMaxFrame {
			// Every defined setting is bounded by the absolute frame cap;
			// a larger claim is hostile regardless of key.
			return control{}, fmt.Errorf("%w: SETTINGS value %d out of range", ErrProtocol, val)
		}
		switch key {
		case settingMaxStreams:
			s.MaxStreams = int(val)
		case settingInitialWindow:
			s.InitialWindow = int(val)
		case settingMaxFrame:
			s.MaxFrame = int(val)
		}
	}
	if s.MaxStreams <= 0 || s.InitialWindow <= 0 || s.MaxFrame <= 0 {
		return control{}, fmt.Errorf("%w: SETTINGS missing required limits", ErrProtocol)
	}
	if s.InitialWindow < s.MaxFrame {
		return control{}, fmt.Errorf("%w: SETTINGS window %d below max frame %d", ErrProtocol, s.InitialWindow, s.MaxFrame)
	}
	return control{settings: s}, nil
}
