package mux

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Transport multiplexes streams over one reliable net.Conn. The side
// that dialed the connection creates it with Client and opens streams;
// the accepting side creates it with Server and accepts them. Either
// side's failure — a framing violation, a dead conn, a GOAWAY — is
// terminal for the whole transport: every stream dies with the same
// typed error rather than desynchronizing.
type Transport struct {
	conn   net.Conn
	br     *bufio.Reader
	client bool
	local  Settings // our receive limits (advertised to the peer)
	peer   Settings // the peer's receive limits (we must respect them)

	wmu  sync.Mutex
	wbuf []byte // HeaderLen + max payload we may send; reused per frame
	werr error

	mu       sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32 // next id this side assigns (client side; odd)
	maxSyn   uint32 // highest stream id SYNed by the initiating side
	err      error  // terminal transport error
	closed   bool
	accepts  chan *Stream
	slots    chan struct{} // open-side stream-limit semaphore
	done     chan struct{}
	ctrl     [maxControlPayload]byte // control payload scratch
	loopDone chan struct{}
}

// Client establishes protocol v2 on conn from the initiating side: it
// sends our SETTINGS, requires the peer's SETTINGS in reply, and starts
// the demultiplexing loop. A peer that answers with anything but a v2
// SETTINGS frame — some unrelated service — fails with
// ErrVersionMismatch (or ErrBadMagic) without having consumed more than
// one frame's worth of reply.
func Client(conn net.Conn, st Settings) (*Transport, error) {
	return handshake(conn, st, true)
}

// Server establishes protocol v2 on conn from the accepting side: it
// requires the client's opening SETTINGS, replies with ours, and starts
// the loop. A peer whose first byte is not Magic — a client speaking some
// other protocol — fails with ErrBadMagic at once, without waiting for a
// whole frame header.
func Server(conn net.Conn, st Settings) (*Transport, error) {
	return handshake(conn, st, false)
}

func handshake(conn net.Conn, st Settings, client bool) (*Transport, error) {
	st = st.withDefaults()
	t := &Transport{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 64<<10),
		client:   client,
		local:    st,
		streams:  make(map[uint32]*Stream),
		nextID:   1,
		accepts:  make(chan *Stream, st.AcceptBacklog),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	// The handshake frames are small; the write buffer is resized to the
	// negotiated frame bound once the peer's SETTINGS arrive.
	t.wbuf = make([]byte, HeaderLen+maxControlPayload)
	if client {
		if err := t.writeFrame(FrameSettings, 0, encodeSettings(st)); err != nil {
			return nil, fmt.Errorf("mux: handshake send: %w", err)
		}
	}
	peer, err := t.readSettings()
	if err != nil {
		return nil, err
	}
	t.peer = peer
	if !client {
		if err := t.writeFrame(FrameSettings, 0, encodeSettings(st)); err != nil {
			return nil, fmt.Errorf("mux: handshake send: %w", err)
		}
	}
	max := t.peer.MaxFrame
	if t.local.MaxFrame > max {
		max = t.local.MaxFrame
	}
	t.wbuf = make([]byte, HeaderLen+max)
	// The open-side limit is the stricter of what we allow ourselves and
	// what the peer advertised it will accept.
	limit := st.MaxStreams
	if peer.MaxStreams < limit {
		limit = peer.MaxStreams
	}
	t.slots = make(chan struct{}, limit)
	go t.readLoop()
	return t, nil
}

// readSettings reads and validates the peer's opening SETTINGS frame.
func (t *Transport) readSettings() (Settings, error) {
	var hdr [HeaderLen]byte
	_, err := io.ReadFull(t.br, hdr[:1])
	if err == nil && hdr[0] != Magic {
		// Fail on the first byte: a peer speaking another protocol may
		// send fewer than HeaderLen bytes and then wait for a reply.
		return Settings{}, fmt.Errorf("mux: handshake: %w", ErrBadMagic)
	}
	if err == nil {
		_, err = io.ReadFull(t.br, hdr[1:])
	}
	if err != nil {
		// A peer that closed instead of answering the preface is not
		// speaking v2 — the common shape of dialing some other service.
		return Settings{}, fmt.Errorf("mux: handshake read: %w: %w", ErrVersionMismatch, err)
	}
	h, err := parseHeader(hdr[:])
	if err != nil {
		return Settings{}, fmt.Errorf("mux: handshake: %w", err)
	}
	if h.typ != FrameSettings || h.stream != 0 {
		return Settings{}, fmt.Errorf("mux: handshake: %w: expected SETTINGS, got frame %#x on stream %d",
			ErrProtocol, h.typ, h.stream)
	}
	if int(h.length) > maxControlPayload {
		return Settings{}, fmt.Errorf("mux: handshake: %w: %d-byte SETTINGS", ErrFrameTooLarge, h.length)
	}
	payload := t.ctrl[:h.length]
	if _, err := io.ReadFull(t.br, payload); err != nil {
		return Settings{}, fmt.Errorf("mux: handshake read: %w", err)
	}
	c, err := decodeControl(FrameSettings, payload)
	if err != nil {
		return Settings{}, fmt.Errorf("mux: handshake: %w", err)
	}
	return c.settings, nil
}

// PeerSettings returns the limits the peer advertised.
func (t *Transport) PeerSettings() Settings { return t.peer }

// LocalSettings returns the limits this side advertised.
func (t *Transport) LocalSettings() Settings { return t.local }

// Open starts a new stream, blocking while the connection is at its
// negotiated stream limit. It fails once the transport dies.
func (t *Transport) Open() (*Stream, error) {
	return t.OpenContext(context.Background())
}

// OpenContext is Open bounded by a context.
func (t *Transport) OpenContext(ctx context.Context) (*Stream, error) {
	select {
	case t.slots <- struct{}{}:
	case <-t.done:
		return nil, t.Err()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// The SYN must hit the wire in stream-id order — the peer treats an
	// id at or below its SYN watermark as reuse and fails the connection
	// — so id assignment and the SYN write stay pinned together under
	// the writer lock.
	t.wmu.Lock()
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		t.wmu.Unlock()
		<-t.slots
		return nil, t.Err()
	}
	id := t.nextID
	t.nextID += 2
	s := newStream(id, t, t.peer.InitialWindow)
	t.streams[id] = s
	t.mu.Unlock()
	err := t.writeFrameLocked(FrameSyn, id, nil)
	t.wmu.Unlock()
	if err != nil {
		t.retire(s)
		return nil, err
	}
	return s, nil
}

// Accept returns the next peer-opened stream. It blocks until a stream
// arrives or the transport dies.
func (t *Transport) Accept() (*Stream, error) {
	select {
	case s := <-t.accepts:
		return s, nil
	case <-t.done:
		// Drain streams accepted before the failure so a graceful
		// shutdown still delivers them.
		select {
		case s := <-t.accepts:
			return s, nil
		default:
			return nil, t.Err()
		}
	}
}

// NumStreams returns the number of live streams.
func (t *Transport) NumStreams() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.streams)
}

// Err returns the transport's terminal error, or nil while it is
// healthy.
func (t *Transport) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		return nil
	}
	return t.err
}

// Close shuts the transport down: a best-effort GOAWAY tells the peer
// this is deliberate, the connection closes, and every stream dies with
// ErrClosed.
func (t *Transport) Close() error {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	t.mu.Unlock()
	if !already {
		var code [4]byte
		_ = t.writeFrame(FrameGoAway, 0, code[:])
	}
	t.fail(ErrClosed)
	return nil
}

// fail records the transport's terminal error (first one wins), closes
// the connection, and kills every stream with it.
func (t *Transport) fail(err error) {
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		return
	}
	t.err = err
	t.closed = true
	victims := make([]*Stream, 0, len(t.streams))
	for _, s := range t.streams {
		victims = append(victims, s)
	}
	clear(t.streams)
	close(t.done)
	t.mu.Unlock()
	_ = t.conn.Close()
	t.wmu.Lock()
	if t.werr == nil {
		t.werr = err
	}
	t.wmu.Unlock()
	for _, s := range victims {
		if errors.Is(err, ErrClosed) {
			s.kill(ErrClosed)
		} else {
			s.kill(fmt.Errorf("%w: %w", ErrStreamReset, err))
		}
	}
}

// writeFrame marshals one frame into the transport's reused write buffer
// and writes it with a single conn.Write, so the steady-state write path
// performs no allocations and frames from concurrent streams never
// interleave mid-frame.
//
//ipvet:allocfree
func (t *Transport) writeFrame(typ byte, stream uint32, payload []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.writeFrameLocked(typ, stream, payload)
}

// writeFrameLocked is writeFrame with t.wmu already held, for callers
// that must pin frame order across another operation (Open pins SYN
// emission to stream-id assignment).
//
//ipvet:allocfree
func (t *Transport) writeFrameLocked(typ byte, stream uint32, payload []byte) error {
	if t.werr != nil {
		return t.werr
	}
	putHeader(t.wbuf, typ, 0, stream, uint32(len(payload)))
	n := copy(t.wbuf[HeaderLen:], payload)
	if _, err := t.conn.Write(t.wbuf[:HeaderLen+n]); err != nil {
		t.werr = err //ipvet:ignore locksafe -- t.wmu is held by every caller (writeFrame, OpenContext)
		return err
	}
	return nil
}

// writeWindow sends a WINDOW credit grant.
//
//ipvet:allocfree
func (t *Transport) writeWindow(stream uint32, credit uint32) {
	var p [4]byte
	p[0] = byte(credit >> 24)
	p[1] = byte(credit >> 16)
	p[2] = byte(credit >> 8)
	p[3] = byte(credit)
	_ = t.writeFrame(FrameWindow, stream, p[:])
}

// writeRst sends a stream abort.
func (t *Transport) writeRst(stream uint32, code uint32) error {
	var p [4]byte
	p[0] = byte(code >> 24)
	p[1] = byte(code >> 16)
	p[2] = byte(code >> 8)
	p[3] = byte(code)
	return t.writeFrame(FrameRst, stream, p[:])
}

// retire removes a stream from the table, releasing its open slot. Late
// frames addressed to a retired id are discarded by the read loop (the
// id is provably below the SYN watermark), so a FIN or straggling DATA
// crossing our Close on the wire is not an error. Buffered data stays
// readable after retirement (like TCP after FIN); the stream's ring goes
// back to the slab pool when a Read drains it to EOF, on Close, or when
// the stream dies.
func (t *Transport) retire(s *Stream) {
	t.mu.Lock()
	_, live := t.streams[s.id]
	delete(t.streams, s.id)
	t.mu.Unlock()
	if live && t.client == (s.id%2 == 1) {
		// We opened it; free the limit slot.
		<-t.slots
	}
}

// maybeRetire retires the stream once both directions have finished.
func (t *Transport) maybeRetire(s *Stream) {
	if s.bothClosed() {
		t.retire(s)
	}
}

// discard drains length bytes addressed to a retired stream.
func (t *Transport) discard(length int) error {
	for length > 0 {
		n := length
		if n > len(t.ctrl) {
			n = len(t.ctrl)
		}
		if _, err := io.ReadFull(t.br, t.ctrl[:n]); err != nil {
			return err
		}
		length -= n
	}
	return nil
}

// readLoop demultiplexes incoming frames until the connection dies or a
// protocol violation makes the transport unsalvageable. Every exit path
// funnels through fail, so streams always observe a typed terminal
// error.
func (t *Transport) readLoop() {
	defer close(t.loopDone)
	var hdr [HeaderLen]byte
	for {
		if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("%w: peer closed the connection", ErrClosed)
			}
			t.fail(err)
			return
		}
		h, err := parseHeader(hdr[:])
		if err != nil {
			t.fail(err)
			return
		}
		if h.typ == FrameData {
			if err := t.handleData(h); err != nil {
				t.fail(err)
				return
			}
			continue
		}
		if err := t.handleControl(h); err != nil {
			t.fail(err)
			return
		}
	}
}

// lookup resolves a frame's stream id: the live stream, or nil for a
// retired id whose late frames are discarded, or a typed error for an id
// that was never opened — the hostile-stream-id case that must fail the
// connection rather than desynchronize it.
func (t *Transport) lookup(id uint32) (*Stream, error) {
	if id == 0 || id%2 == 0 {
		// Stream 0 is control-only and even ids are unassigned in v2
		// (only the initiating side opens streams).
		return nil, fmt.Errorf("%w: id %d", ErrUnknownStream, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.streams[id]; ok {
		return s, nil
	}
	watermark := t.maxSyn
	if t.client {
		watermark = 0
		if t.nextID > 2 {
			watermark = t.nextID - 2
		}
	}
	if id <= watermark {
		return nil, nil // retired: late frame, discard
	}
	return nil, fmt.Errorf("%w: id %d was never opened", ErrUnknownStream, id)
}

// handleData routes one DATA frame into its stream's receive buffer.
func (t *Transport) handleData(h header) error {
	if int(h.length) > t.local.MaxFrame {
		return fmt.Errorf("%w: %d-byte DATA payload (negotiated limit %d)",
			ErrFrameTooLarge, h.length, t.local.MaxFrame)
	}
	s, err := t.lookup(h.stream)
	if err != nil {
		return err
	}
	if s == nil {
		return t.discard(int(h.length))
	}
	return s.deliver(t.br, int(h.length))
}

// handleControl decodes one control frame and applies it.
func (t *Transport) handleControl(h header) error {
	limit, ok := controlMaxLen(h.typ)
	if !ok {
		return fmt.Errorf("%w: %#x", ErrUnknownFrameType, h.typ)
	}
	if int(h.length) > limit {
		return fmt.Errorf("%w: %d-byte payload on frame type %#x (limit %d)",
			ErrFrameTooLarge, h.length, h.typ, limit)
	}
	payload := t.ctrl[:h.length]
	if _, err := io.ReadFull(t.br, payload); err != nil {
		return err
	}
	c, err := decodeControl(h.typ, payload)
	if err != nil {
		return err
	}
	switch h.typ {
	case FrameSyn:
		return t.handleSyn(h.stream)
	case FrameFin:
		s, err := t.lookup(h.stream)
		if err != nil || s == nil {
			return err
		}
		s.finReceived()
	case FrameRst:
		s, err := t.lookup(h.stream)
		if err != nil || s == nil {
			return err
		}
		if c.code == CodeRefused {
			s.kill(ErrStreamRefused)
			t.retire(s)
		} else {
			s.resetReceived(c.code)
			t.maybeRetire(s)
		}
	case FrameWindow:
		s, err := t.lookup(h.stream)
		if err != nil || s == nil {
			return err
		}
		return s.addCredit(c.credit)
	case FrameSettings:
		// SETTINGS are exchanged exactly once, during the handshake.
		return fmt.Errorf("%w: SETTINGS after handshake", ErrProtocol)
	case FrameGoAway:
		if c.msg != "" {
			return fmt.Errorf("%w (code %d): %s", ErrGoAway, c.code, c.msg)
		}
		return fmt.Errorf("%w (code %d)", ErrGoAway, c.code)
	}
	return nil
}

// handleSyn admits (or refuses) a peer-opened stream.
func (t *Transport) handleSyn(id uint32) error {
	if t.client {
		return fmt.Errorf("%w: SYN from the accepting side", ErrProtocol)
	}
	if id == 0 || id%2 == 0 {
		return fmt.Errorf("%w: SYN with invalid id %d", ErrProtocol, id)
	}
	t.mu.Lock()
	if id <= t.maxSyn {
		t.mu.Unlock()
		return fmt.Errorf("%w: SYN for id %d at or below watermark %d", ErrStreamReuse, id, t.maxSyn)
	}
	t.maxSyn = id
	if len(t.streams) >= t.local.MaxStreams || len(t.accepts) == cap(t.accepts) {
		t.mu.Unlock()
		// Over the advertised limit: refuse just this stream. The id is
		// burned (it sits below the watermark now), so the peer's
		// follow-on frames are discarded, not fatal.
		return t.writeRst(id, CodeRefused)
	}
	s := newStream(id, t, t.peer.InitialWindow)
	t.streams[id] = s
	t.mu.Unlock()
	t.accepts <- s
	return nil
}
