package mux

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pair builds a connected client/server Transport pair over net.Pipe.
func pair(t *testing.T, cs, ss Settings) (*Transport, *Transport) {
	t.Helper()
	cc, sc := net.Pipe()
	var (
		srv  *Transport
		serr error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		srv, serr = Server(sc, ss)
	}()
	cli, cerr := Client(cc, cs)
	<-done
	if cerr != nil || serr != nil {
		t.Fatalf("handshake: client=%v server=%v", cerr, serr)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

func TestStreamRoundTrip(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})

	srvErr := make(chan error, 1)
	go func() {
		s, err := srv.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		data, err := io.ReadAll(s)
		if err != nil {
			srvErr <- err
			return
		}
		if _, err := s.Write(data); err != nil {
			srvErr <- err
			return
		}
		srvErr <- s.CloseWrite()
	}()

	s, err := cli.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	msg := bytes.Repeat([]byte("in-place delta "), 1000)
	if _, err := s.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	back, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(back, msg) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(back), len(msg))
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server side: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestManyStreamsInterleaved(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	const streams = 32

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < streams; i++ {
			s, err := srv.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := io.Copy(s, s); err != nil {
					t.Errorf("echo stream %d: %v", s.ID(), err)
					return
				}
				s.CloseWrite()
				s.Close()
			}()
		}
	}()

	var cwg sync.WaitGroup
	for i := 0; i < streams; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			s, err := cli.Open()
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			msg := bytes.Repeat([]byte{byte(i)}, 4096+i)
			wdone := make(chan struct{})
			go func() {
				defer close(wdone)
				s.Write(msg)
				s.CloseWrite()
			}()
			back, err := io.ReadAll(s)
			<-wdone
			s.Close()
			if err != nil {
				t.Errorf("stream %d read: %v", i, err)
				return
			}
			if !bytes.Equal(back, msg) {
				t.Errorf("stream %d corrupted: got %d bytes want %d", i, len(back), len(msg))
			}
		}(i)
	}
	cwg.Wait()
	wg.Wait()
}

func TestHalfClose(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	accepted := make(chan *Stream, 1)
	go func() {
		s, _ := srv.Accept()
		accepted <- s
	}()
	c, err := cli.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := c.Write([]byte("request")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := c.CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	s := <-accepted
	// Server drains to EOF — the half-close — then answers on the still
	// open return direction.
	req, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("server ReadAll: %v", err)
	}
	if string(req) != "request" {
		t.Fatalf("server got %q", req)
	}
	if _, err := s.Write([]byte("response")); err != nil {
		t.Fatalf("server Write after peer half-close: %v", err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatalf("server CloseWrite: %v", err)
	}
	resp, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("client ReadAll: %v", err)
	}
	if string(resp) != "response" {
		t.Fatalf("client got %q", resp)
	}
	// A write after our own half-close must fail.
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after CloseWrite: err=%v, want ErrClosed", err)
	}
}

func TestStreamIDsNeverReused(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	go func() {
		for {
			s, err := srv.Accept()
			if err != nil {
				return
			}
			s.CloseWrite()
			s.Close()
		}
	}()
	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		s, err := cli.Open()
		if err != nil {
			t.Fatalf("Open #%d: %v", i, err)
		}
		if seen[s.ID()] {
			t.Fatalf("stream id %d reused after close", s.ID())
		}
		if s.ID()%2 != 1 {
			t.Fatalf("client stream id %d is not odd", s.ID())
		}
		seen[s.ID()] = true
		s.Close()
	}
}

// TestSynReuseFailsConnection injects a raw SYN replaying an id at or
// below the server's watermark: id reuse after close is a connection-
// fatal protocol violation, not a new stream.
func TestSynReuseFailsConnection(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	srvErr := make(chan error, 1)
	go func() {
		srv, err := Server(sc, Settings{})
		if err != nil {
			srvErr <- err
			return
		}
		for {
			if _, err := srv.Accept(); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	cli, err := Client(cc, Settings{})
	if err != nil {
		t.Fatalf("Client: %v", err)
	}
	s, err := cli.Open() // id 1
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Close()
	// Replay a SYN for id 1 behind the transport's back.
	if err := cli.writeFrame(FrameSyn, 1, nil); err != nil {
		t.Fatalf("raw SYN: %v", err)
	}
	select {
	case err := <-srvErr:
		if !errors.Is(err, ErrStreamReuse) {
			t.Fatalf("server died with %v, want ErrStreamReuse", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not detect SYN reuse")
	}
}

func TestStreamLimitBlocksOpen(t *testing.T) {
	cli, srv := pair(t, Settings{MaxStreams: 1 << 20}, Settings{MaxStreams: 2})
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
			// Hold streams open so the limit stays consumed.
		}
	}()
	if got := cli.PeerSettings().MaxStreams; got != 2 {
		t.Fatalf("peer MaxStreams = %d, want 2", got)
	}
	if _, err := cli.Open(); err != nil {
		t.Fatalf("Open 1: %v", err)
	}
	if _, err := cli.Open(); err != nil {
		t.Fatalf("Open 2: %v", err)
	}
	// The negotiated limit (min of both sides) is 2, so Open #3 blocks
	// locally rather than troubling the server.
	done := make(chan struct{})
	go func() {
		defer close(done)
		cli.Open()
	}()
	select {
	case <-done:
		t.Fatal("Open past the stream limit did not block")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestBackpressure(t *testing.T) {
	// A tiny window: the writer must stall until the reader drains.
	small := Settings{InitialWindow: 4 << 10, MaxFrame: 1 << 10}
	cli, srv := pair(t, small, small)
	accepted := make(chan *Stream, 1)
	go func() {
		s, _ := srv.Accept()
		accepted <- s
	}()
	c, err := cli.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := bytes.Repeat([]byte("w"), 64<<10) // 16x the window
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write(payload)
		if err == nil {
			err = c.CloseWrite()
		}
		wrote <- err
	}()
	// The writer cannot have finished: only one window of credit exists.
	select {
	case err := <-wrote:
		t.Fatalf("write of 16x window completed without reader draining (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	s := <-accepted
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("drained %d bytes, want %d", len(got), len(payload))
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	go func() {
		s, _ := srv.Accept()
		_ = s // never writes
	}()
	s, err := cli.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	var buf [1]byte
	start := time.Now()
	if _, err := s.Read(buf[:]); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past deadline: err=%v, want ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline read blocked far past its deadline")
	}
	// Clearing the deadline re-arms the stream.
	s.SetReadDeadline(time.Time{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.kill(ErrStreamReset)
	}()
	if _, err := s.Read(buf[:]); !errors.Is(err, ErrStreamReset) {
		t.Fatalf("Read after kill: err=%v", err)
	}
}

func TestTransportCloseKillsStreams(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()
	s, err := cli.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	readErr := make(chan error, 1)
	go func() {
		var b [1]byte
		_, err := s.Read(b[:])
		readErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cli.Close()
	select {
	case err := <-readErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Read after transport Close: err=%v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Read survived transport Close")
	}
	if _, err := cli.Open(); err == nil {
		t.Fatal("Open on closed transport succeeded")
	}
}

func TestGoAwayReachesPeer(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	cli.Close() // sends a best-effort GOAWAY before closing
	deadline := time.After(5 * time.Second)
	for srv.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("server never observed client shutdown")
		case <-time.After(time.Millisecond):
		}
	}
	err := srv.Err()
	if !errors.Is(err, ErrGoAway) && !errors.Is(err, ErrClosed) {
		t.Fatalf("server terminal error = %v, want GOAWAY or closed", err)
	}
}

// rawServerConn handshakes with a v2 server by hand and returns the raw
// conn so a test can inject frames below the Transport layer. Accepted
// streams are echoed to io.Discard; when closeOnEOF is set each stream
// is closed (and thus retired) once the peer half-closes.
func rawServerConn(t *testing.T, ss Settings, closeOnEOF bool) (net.Conn, chan error) {
	t.Helper()
	cc, sc := net.Pipe()
	t.Cleanup(func() { cc.Close() })
	srvErr := make(chan error, 1)
	go func() {
		srv, err := Server(sc, ss)
		if err != nil {
			srvErr <- err
			return
		}
		go func() {
			for {
				s, err := srv.Accept()
				if err != nil {
					return
				}
				go func() {
					io.Copy(io.Discard, s)
					if closeOnEOF {
						s.Close()
					}
				}()
			}
		}()
		<-srv.done
		srvErr <- srv.Err()
	}()
	// Handshake by hand: send our SETTINGS, read the server's reply.
	hdr := make([]byte, HeaderLen)
	body := encodeSettings(Settings{}.withDefaults())
	putHeader(hdr, FrameSettings, 0, 0, uint32(len(body)))
	if _, err := cc.Write(append(hdr, body...)); err != nil {
		t.Fatalf("handshake write: %v", err)
	}
	if _, err := io.ReadFull(cc, hdr); err != nil {
		t.Fatalf("handshake read: %v", err)
	}
	h, err := parseHeader(hdr)
	if err != nil || h.typ != FrameSettings {
		t.Fatalf("handshake reply: %+v err=%v", h, err)
	}
	if _, err := io.ReadFull(cc, make([]byte, h.length)); err != nil {
		t.Fatalf("handshake reply body: %v", err)
	}
	return cc, srvErr
}

func frameBytes(typ, flags byte, stream uint32, payload []byte) []byte {
	b := make([]byte, HeaderLen+len(payload))
	b[0] = Magic
	b[1] = Version
	b[2] = typ
	b[3] = flags
	binary.BigEndian.PutUint32(b[4:8], stream)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(payload)))
	copy(b[HeaderLen:], payload)
	return b
}

// TestHostileFrames drives raw hostile frames at a live v2 server and
// asserts each one fails the connection with its typed error instead of
// desynchronizing the frame boundary.
func TestHostileFrames(t *testing.T) {
	huge := frameBytes(FrameData, 0, 1, nil)
	binary.BigEndian.PutUint32(huge[8:12], 1<<25) // claim a 32 MiB payload

	overNegotiated := frameBytes(FrameData, 0, 1, nil)
	binary.BigEndian.PutUint32(overNegotiated[8:12], DefaultMaxFrame+1)

	badMagic := frameBytes(FrameData, 0, 1, []byte("x"))
	badMagic[0] = 0x00

	badVersion := frameBytes(FrameData, 0, 1, []byte("x"))
	badVersion[1] = 9

	flagged := frameBytes(FrameData, 0x80, 1, []byte("x"))

	cases := []struct {
		name   string
		frames [][]byte
		want   error
	}{
		{"absolute oversize length", [][]byte{huge}, ErrFrameTooLarge},
		{"over negotiated max frame",
			[][]byte{frameBytes(FrameSyn, 0, 1, nil), overNegotiated}, ErrFrameTooLarge},
		{"bad magic", [][]byte{badMagic}, ErrBadMagic},
		{"bad version", [][]byte{badVersion}, ErrVersionMismatch},
		{"reserved flags", [][]byte{flagged}, ErrProtocol},
		{"data for never-opened stream",
			[][]byte{frameBytes(FrameData, 0, 99, []byte("x"))}, ErrUnknownStream},
		{"data for stream zero",
			[][]byte{frameBytes(FrameData, 0, 0, []byte("x"))}, ErrUnknownStream},
		{"data for even stream id",
			[][]byte{frameBytes(FrameData, 0, 4, []byte("x"))}, ErrUnknownStream},
		{"window for never-opened stream",
			[][]byte{frameBytes(FrameWindow, 0, 7, []byte{0, 0, 1, 0})}, ErrUnknownStream},
		{"syn reuse below watermark",
			[][]byte{frameBytes(FrameSyn, 0, 5, nil), frameBytes(FrameSyn, 0, 3, nil)},
			ErrStreamReuse},
		{"syn on even id", [][]byte{frameBytes(FrameSyn, 0, 2, nil)}, ErrProtocol},
		{"unknown frame type", [][]byte{frameBytes(0x7F, 0, 0, nil)}, ErrUnknownFrameType},
		{"oversized control payload",
			[][]byte{frameBytes(FrameRst, 0, 1, make([]byte, 64))}, ErrFrameTooLarge},
		{"zero-credit window grant",
			[][]byte{frameBytes(FrameSyn, 0, 1, nil), frameBytes(FrameWindow, 0, 1, []byte{0, 0, 0, 0})},
			ErrFlowControl},
		{"data after fin",
			[][]byte{
				frameBytes(FrameSyn, 0, 1, nil),
				frameBytes(FrameFin, 0, 1, nil),
				frameBytes(FrameData, 0, 1, []byte("late")),
			}, ErrProtocol},
		{"settings after handshake",
			[][]byte{frameBytes(FrameSettings, 0, 0, encodeSettings(Settings{}.withDefaults()))},
			ErrProtocol},
		{"syn payload not empty",
			[][]byte{frameBytes(FrameSyn, 0, 9, []byte("x"))}, ErrProtocol},
		{"truncated rst payload",
			[][]byte{frameBytes(FrameSyn, 0, 1, nil), frameBytes(FrameRst, 0, 1, []byte{1, 2})},
			ErrProtocol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// closeOnEOF is off so a FIN alone never retires a stream —
			// the data-after-fin case must hit a live stream.
			cc, srvErr := rawServerConn(t, Settings{}, false)
			for _, f := range tc.frames {
				if _, err := cc.Write(f); err != nil {
					t.Fatalf("frame write: %v", err)
				}
			}
			select {
			case err := <-srvErr:
				if !errors.Is(err, tc.want) {
					t.Fatalf("server failed with %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("server accepted hostile frames without failing")
			}
		})
	}
}

// TestLateFramesForRetiredStreamDiscarded: frames racing a local close
// must be dropped, not treated as hostile — a FIN crossing an RST on the
// wire is normal shutdown, not an attack.
func TestLateFramesForRetiredStreamDiscarded(t *testing.T) {
	cc, srvErr := rawServerConn(t, Settings{}, true)
	// Open stream 1 and half-close it; the echo goroutine sees EOF and
	// closes its side, retiring the id.
	for _, f := range [][]byte{
		frameBytes(FrameSyn, 0, 1, nil),
		frameBytes(FrameFin, 0, 1, nil),
	} {
		if _, err := cc.Write(f); err != nil {
			t.Fatalf("setup: %v", err)
		}
	}
	// Drain the server's FIN/RST replies so the pipe never backs up, and
	// give the echo goroutine a moment to close.
	go io.Copy(io.Discard, cc)
	time.Sleep(50 * time.Millisecond)
	// Late frames for the retired id must be discarded silently.
	for _, f := range [][]byte{
		frameBytes(FrameData, 0, 1, []byte("straggler")),
		frameBytes(FrameFin, 0, 1, nil),
		frameBytes(FrameRst, 0, 1, []byte{0, 0, 0, 1}),
		frameBytes(FrameWindow, 0, 1, []byte{0, 0, 1, 0}),
	} {
		if _, err := cc.Write(f); err != nil {
			t.Fatalf("late frame write: %v", err)
		}
	}
	// A fresh stream still works: the connection survived.
	if _, err := cc.Write(frameBytes(FrameSyn, 0, 3, nil)); err != nil {
		t.Fatalf("new SYN: %v", err)
	}
	if _, err := cc.Write(frameBytes(FrameData, 0, 3, []byte("alive"))); err != nil {
		t.Fatalf("new DATA: %v", err)
	}
	select {
	case err := <-srvErr:
		t.Fatalf("server failed on late frames for a retired stream: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
}

// TestCloseReleasesRetiredRing: an update session finishes both
// directions before either end closes, so the stream retires while its
// ring is still readable. Close must then return the ring to the slab
// pool; afterwards Read fails with ErrClosed and late DATA for the id is
// discarded without failing the connection.
func TestCloseReleasesRetiredRing(t *testing.T) {
	cli, srv := pair(t, Settings{}, Settings{})
	msg := bytes.Repeat([]byte("in-place delta "), 700)
	srvErr := make(chan error, 1)
	go func() {
		s, err := srv.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(s, got); err != nil {
			srvErr <- err
			return
		}
		if _, err := s.Write(got); err != nil {
			srvErr <- err
			return
		}
		srvErr <- s.CloseWrite()
	}()

	s, err := cli.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.Write(msg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Read the echo but not the EOF: a Read that reaches EOF releases the
	// ring itself.
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(s, back); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server side: %v", err)
	}
	if err := s.CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	live := func() bool {
		cli.mu.Lock()
		defer cli.mu.Unlock()
		_, ok := cli.streams[s.ID()]
		return ok
	}
	for deadline := time.Now().Add(5 * time.Second); live(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stream did not retire after both FINs")
		}
	}
	s.mu.Lock()
	held := s.rq.buf != nil
	s.mu.Unlock()
	if !held {
		t.Fatal("the retired stream holds no ring before Close")
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s.mu.Lock()
	kept := cap(s.rq.buf)
	s.mu.Unlock()
	if kept != 0 {
		t.Fatalf("Close kept the retired stream's %d-byte ring", kept)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v, want ErrClosed", err)
	}

	if err := srv.writeFrame(FrameData, s.ID(), []byte("straggler")); err != nil {
		t.Fatalf("late DATA: %v", err)
	}
	// The connection survived the late frame: a fresh stream still works.
	go func() {
		s2, err := srv.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		got, err := io.ReadAll(s2)
		if err == nil && string(got) != "alive" {
			err = fmt.Errorf("server read %q, want %q", got, "alive")
		}
		srvErr <- err
	}()
	s2, err := cli.Open()
	if err != nil {
		t.Fatalf("Open after late DATA: %v", err)
	}
	if _, err := s2.Write([]byte("alive")); err != nil {
		t.Fatalf("Write after late DATA: %v", err)
	}
	if err := s2.CloseWrite(); err != nil {
		t.Fatalf("CloseWrite after late DATA: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server side after late DATA: %v", err)
	}
}

// TestSynRefusedOverLimit floods raw SYNs past the server's advertised
// stream limit: the overflow SYN is answered with RST CodeRefused while
// the connection survives.
func TestSynRefusedOverLimit(t *testing.T) {
	cc, srvErr := rawServerConn(t, Settings{MaxStreams: 1}, false)
	if _, err := cc.Write(frameBytes(FrameSyn, 0, 1, nil)); err != nil {
		t.Fatalf("SYN 1: %v", err)
	}
	if _, err := cc.Write(frameBytes(FrameSyn, 0, 3, nil)); err != nil {
		t.Fatalf("SYN 3: %v", err)
	}
	hdr := make([]byte, HeaderLen)
	if _, err := io.ReadFull(cc, hdr); err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	h, err := parseHeader(hdr)
	if err != nil {
		t.Fatalf("refusal header: %v", err)
	}
	if h.typ != FrameRst || h.stream != 3 {
		t.Fatalf("got frame type %#x on stream %d, want RST on 3", h.typ, h.stream)
	}
	body := make([]byte, h.length)
	if _, err := io.ReadFull(cc, body); err != nil {
		t.Fatalf("refusal body: %v", err)
	}
	c, err := decodeControl(FrameRst, body)
	if err != nil || c.code != CodeRefused {
		t.Fatalf("refusal code = %d (err=%v), want CodeRefused", c.code, err)
	}
	select {
	case err := <-srvErr:
		t.Fatalf("server died refusing a stream: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestClientHandshakeAgainstNonV2(t *testing.T) {
	t.Run("v1 style greeting", func(t *testing.T) {
		cc, sc := net.Pipe()
		defer sc.Close()
		go io.Copy(io.Discard, sc)
		errc := make(chan error, 1)
		go func() {
			_, err := Client(cc, Settings{})
			errc <- err
		}()
		// A peer speaking the bare session protocol (the retired v1)
		// answers with a message type (0x01..0x07), never Magic.
		sc.Write([]byte{0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
		if err := <-errc; !errors.Is(err, ErrBadMagic) {
			t.Fatalf("Client against v1-style peer: err=%v, want ErrBadMagic", err)
		}
	})
	t.Run("peer hangs up", func(t *testing.T) {
		cc, sc := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			_, err := Client(cc, Settings{})
			errc <- err
		}()
		go io.Copy(io.Discard, sc)
		time.Sleep(10 * time.Millisecond)
		sc.Close()
		if err := <-errc; !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("Client against hangup: err=%v, want ErrVersionMismatch", err)
		}
	})
}

func TestSettingsNegotiation(t *testing.T) {
	cs := Settings{MaxStreams: 7, InitialWindow: 32 << 10, MaxFrame: 8 << 10}
	ss := Settings{MaxStreams: 11, InitialWindow: 128 << 10, MaxFrame: 4 << 10}
	cli, srv := pair(t, cs, ss)
	if got := cli.PeerSettings(); got.MaxStreams != 11 || got.InitialWindow != 128<<10 || got.MaxFrame != 4<<10 {
		t.Fatalf("client sees peer settings %+v", got)
	}
	if got := srv.PeerSettings(); got.MaxStreams != 7 || got.InitialWindow != 32<<10 || got.MaxFrame != 8<<10 {
		t.Fatalf("server sees peer settings %+v", got)
	}
	if cap(cli.slots) != 7 {
		t.Fatalf("client open limit %d, want min(7,11)=7", cap(cli.slots))
	}
}

func TestSettingsCodec(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		wantErr bool
	}{
		{"valid", encodeSettings(Settings{}.withDefaults()), false},
		{"empty", nil, true},
		{"truncated key", []byte{0x80}, true},
		{"missing limits", binary.AppendUvarint(binary.AppendUvarint(nil, settingMaxStreams), 4), true},
		{"window below frame", func() []byte {
			b := binary.AppendUvarint(nil, settingMaxStreams)
			b = binary.AppendUvarint(b, 4)
			b = binary.AppendUvarint(b, settingInitialWindow)
			b = binary.AppendUvarint(b, 16)
			b = binary.AppendUvarint(b, settingMaxFrame)
			b = binary.AppendUvarint(b, 1024)
			return b
		}(), true},
		{"out of range value", func() []byte {
			b := binary.AppendUvarint(nil, settingMaxStreams)
			b = binary.AppendUvarint(b, 1<<40)
			return b
		}(), true},
		{"unknown key skipped", func() []byte {
			b := encodeSettings(Settings{}.withDefaults())
			b = binary.AppendUvarint(b, 99)
			b = binary.AppendUvarint(b, 12345)
			return b
		}(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeControl(FrameSettings, tc.payload)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Decode err=%v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	var b [HeaderLen]byte
	putHeader(b[:], FrameData, 0, 0xDEADBEEF, 0x123456)
	h, err := parseHeader(b[:])
	if err != nil {
		t.Fatalf("parseHeader: %v", err)
	}
	if h.typ != FrameData || h.stream != 0xDEADBEEF || h.length != 0x123456 {
		t.Fatalf("round trip mismatch: %+v", h)
	}
}

// FuzzFrameDecode exercises the frame header parser and the decode of
// every control frame type against arbitrary bytes: decoding must never panic, and any
// accepted header must round-trip.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{Magic, Version, FrameData, 0, 0, 0, 0, 1, 0, 0, 0, 5})
	f.Add([]byte{Magic, Version, FrameSettings, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(frameBytes(FrameGoAway, 0, 0, []byte{0, 0, 0, 3, 'b', 'y', 'e'}))
	f.Add(bytes.Repeat([]byte{0xFF}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < HeaderLen {
			return
		}
		h, err := parseHeader(data[:HeaderLen])
		if err != nil {
			return
		}
		var rt [HeaderLen]byte
		putHeader(rt[:], h.typ, h.flags, h.stream, h.length)
		if !bytes.Equal(rt[:], data[:HeaderLen]) {
			t.Fatalf("header round trip: % x != % x", rt[:], data[:HeaderLen])
		}
		limit, ok := controlMaxLen(h.typ)
		if !ok {
			return
		}
		payload := data[HeaderLen:]
		if len(payload) > limit {
			payload = payload[:limit]
		}
		decodeControl(h.typ, payload) // must not panic
	})
}

func TestRing(t *testing.T) {
	var q ring
	defer q.release()
	src := bytes.Repeat([]byte("0123456789"), 2000)
	r := bytes.NewReader(src)
	var got []byte
	buf := make([]byte, 777)
	// Interleave fills and reads at mismatched sizes to force wraparound.
	for len(got) < len(src) {
		n := 3000
		if rem := r.Len(); n > rem {
			n = rem
		}
		if n > 0 {
			q.grow(n)
			if err := q.fill(r, n); err != nil {
				t.Fatalf("fill: %v", err)
			}
		}
		for q.n > 0 {
			k := q.read(buf)
			got = append(got, buf[:k]...)
		}
	}
	if !bytes.Equal(got, src) {
		t.Fatal("ring corrupted data across grow/wrap cycles")
	}
}

// nopConn satisfies net.Conn with no-op I/O for allocation measurement.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// nopTransport builds a Transport over a no-op conn for deterministic
// allocation measurement (no read loop, no peer).
func nopTransport() *Transport {
	st := Settings{}.withDefaults()
	tr := &Transport{conn: nopConn{}, local: st, peer: st, client: true}
	tr.wbuf = make([]byte, HeaderLen+st.MaxFrame)
	return tr
}

// TestZeroAllocFramePath is the acceptance gate: steady-state frame
// write (header marshal + single conn write), the stream write path
// (chunking + credit accounting), and the receive path (ring fill +
// read + window grant) must not allocate.
func TestZeroAllocFramePath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	t.Run("header", func(t *testing.T) {
		var b [HeaderLen]byte
		n := testing.AllocsPerRun(1000, func() {
			putHeader(b[:], FrameData, 0, 1, 4096)
			if _, err := parseHeader(b[:]); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("header path allocates %.1f/op, want 0", n)
		}
	})
	t.Run("writeFrame", func(t *testing.T) {
		tr := nopTransport()
		payload := make([]byte, 4096)
		n := testing.AllocsPerRun(1000, func() {
			if err := tr.writeFrame(FrameData, 1, payload); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("writeFrame allocates %.1f/op, want 0", n)
		}
	})
	t.Run("stream write", func(t *testing.T) {
		tr := nopTransport()
		s := newStream(1, tr, 1<<30)
		payload := make([]byte, 40<<10) // forces chunking across frames
		n := testing.AllocsPerRun(500, func() {
			if _, err := s.Write(payload); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("stream write path allocates %.1f/op, want 0", n)
		}
	})
	t.Run("stream receive", func(t *testing.T) {
		tr := nopTransport()
		s := newStream(1, tr, 1<<30)
		tr.streams = map[uint32]*Stream{1: s}
		payload := make([]byte, 4096)
		src := bytes.NewReader(payload)
		buf := make([]byte, 8192)
		// Warm once so the ring slab is allocated.
		src.Reset(payload)
		if err := s.deliver(src, len(payload)); err != nil {
			t.Fatal(err)
		}
		s.Read(buf)
		n := testing.AllocsPerRun(1000, func() {
			src.Reset(payload)
			if err := s.deliver(src, len(payload)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Read(buf); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("stream receive path allocates %.1f/op, want 0", n)
		}
	})
}
