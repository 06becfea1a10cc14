package mux

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// Stream is one multiplexed byte stream over a Transport. It implements
// net.Conn, so everything written against a plain connection — sessions,
// deadline wrappers, fault injectors — runs over a Stream unchanged.
//
// Reads are fed by the transport's read loop through a pooled ring
// buffer bounded by the advertised receive window; as the application
// drains it, WINDOW frames replenish the peer's send credit. Writes
// consume the peer-granted credit and block (backpressure) when it is
// exhausted.
type Stream struct {
	id uint32
	t  *Transport

	mu   sync.Mutex
	cond sync.Cond

	rq      ring  // received, undelivered bytes
	recvFin bool  // peer half-closed
	rst     error // terminal: peer RST, transport death, refusal

	sendWin  int64 // credit granted by the peer
	sentFin  bool
	consumed int  // bytes read since the last WINDOW grant
	closed   bool // local Close: reads fail, late frames are discarded
	retired  bool // removed from the transport's stream table

	rdl, wdl       time.Time
	rtimer, wtimer *time.Timer
}

func newStream(id uint32, t *Transport, sendWin int) *Stream {
	s := &Stream{id: id, t: t, sendWin: int64(sendWin)}
	s.cond.L = &s.mu
	return s
}

// ID returns the stream's wire id.
func (s *Stream) ID() uint32 { return s.id }

// Read delivers buffered stream data, blocking until data arrives, the
// peer half-closes (io.EOF after the buffer drains), the stream dies, or
// the read deadline passes.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	for {
		if s.rst != nil {
			s.mu.Unlock()
			return 0, s.rst
		}
		if s.closed {
			s.mu.Unlock()
			return 0, ErrClosed
		}
		if s.rq.n > 0 {
			n := s.rq.read(p)
			s.consumed += n
			grant := 0
			// Replenish the peer's credit once half the window has been
			// drained — batching grants keeps WINDOW traffic at ~2 frames
			// per window instead of one per read.
			if s.consumed >= s.t.local.InitialWindow/2 {
				grant = s.consumed
				s.consumed = 0
			}
			s.mu.Unlock()
			if grant > 0 {
				s.t.writeWindow(s.id, uint32(grant))
			}
			return n, nil
		}
		if s.recvFin {
			s.rq.release()
			s.mu.Unlock()
			return 0, io.EOF
		}
		if !s.rdl.IsZero() && !time.Now().Before(s.rdl) {
			s.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		if len(p) == 0 {
			s.mu.Unlock()
			return 0, nil
		}
		s.cond.Wait()
	}
}

// Write sends p on the stream in window- and frame-bounded chunks,
// blocking while the peer's receive window is exhausted. A blocked Write
// is exactly the backpressure path: a peer that stops draining stalls
// this stream without costing the connection anything.
func (s *Stream) Write(p []byte) (int, error) {
	written := 0
	maxChunk := s.t.peer.MaxFrame
	for written < len(p) {
		s.mu.Lock()
		for {
			if s.rst != nil {
				s.mu.Unlock()
				return written, s.rst
			}
			if s.sentFin || s.closed {
				s.mu.Unlock()
				return written, fmt.Errorf("mux: write on closed stream %d: %w", s.id, ErrClosed)
			}
			if !s.wdl.IsZero() && !time.Now().Before(s.wdl) {
				s.mu.Unlock()
				return written, os.ErrDeadlineExceeded
			}
			if s.sendWin > 0 {
				break
			}
			s.cond.Wait()
		}
		n := len(p) - written
		if int64(n) > s.sendWin {
			n = int(s.sendWin)
		}
		if n > maxChunk {
			n = maxChunk
		}
		s.sendWin -= int64(n)
		s.mu.Unlock()
		if err := s.t.writeFrame(FrameData, s.id, p[written:written+n]); err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}

// CloseWrite half-closes the stream: the peer's reads see io.EOF after
// draining, while this side keeps reading.
func (s *Stream) CloseWrite() error {
	s.mu.Lock()
	if s.sentFin || s.rst != nil {
		s.mu.Unlock()
		return nil
	}
	s.sentFin = true
	s.mu.Unlock()
	err := s.t.writeFrame(FrameFin, s.id, nil)
	s.t.maybeRetire(s)
	return err
}

// Close releases the stream. If the peer has not finished sending, an
// RST tells it to stop; late frames for the retired id are discarded
// rather than failing the connection.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	needFin := !s.sentFin && s.rst == nil
	needRst := !s.recvFin && s.rst == nil
	s.sentFin = true
	s.cond.Broadcast()
	s.mu.Unlock()
	var err error
	if needFin {
		err = s.t.writeFrame(FrameFin, s.id, nil)
	}
	if needRst {
		// Benign: the peer stops sending into a stream nobody reads.
		_ = s.t.writeRst(s.id, CodeCancel)
	}
	s.t.retire(s)
	return err
}

// deliver feeds length payload bytes from the transport's read loop into
// the ring. It enforces the receive window: a peer that sends beyond its
// credit is violating flow control, which is a connection-fatal typed
// error (the alternative — buffering hostile amounts — is exactly what
// the window exists to prevent).
func (s *Stream) deliver(r io.Reader, length int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.rst != nil {
		// Late data for a locally closed stream: drain and drop.
		s.mu.Unlock()
		err := s.t.discard(length)
		s.mu.Lock()
		return err
	}
	if s.recvFin {
		return fmt.Errorf("%w: DATA on stream %d after FIN", ErrProtocol, s.id)
	}
	if s.rq.n+length > s.t.local.InitialWindow {
		return fmt.Errorf("%w: stream %d receive window overrun (%d buffered + %d arriving > %d)",
			ErrFlowControl, s.id, s.rq.n, length, s.t.local.InitialWindow)
	}
	s.rq.grow(length)
	if err := s.rq.fill(r, length); err != nil {
		return err
	}
	s.cond.Broadcast()
	return nil
}

// finReceived marks the peer's half-close.
func (s *Stream) finReceived() {
	s.mu.Lock()
	s.recvFin = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.t.maybeRetire(s)
}

// addCredit applies a WINDOW grant to the send window.
func (s *Stream) addCredit(credit uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendWin += int64(credit)
	if s.sendWin > int64(absoluteMaxFrame)*2 {
		return fmt.Errorf("%w: stream %d send credit overflow", ErrFlowControl, s.id)
	}
	s.cond.Broadcast()
	return nil
}

// resetReceived handles a peer RST. After a FIN, an RST only means the
// peer stopped reading (its Close racing ours on the wire): everything
// it sent — buffered data, the EOF — stays deliverable and only our
// write side dies. Before a FIN it aborts the whole stream.
func (s *Stream) resetReceived(err error) {
	s.mu.Lock()
	if s.recvFin && s.rst == nil {
		s.sentFin = true
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.kill(err)
}

// kill terminates both directions with err (peer RST, refusal, or
// transport death) and wakes every waiter.
func (s *Stream) kill(err error) {
	s.mu.Lock()
	if s.rst == nil {
		s.rst = err
	}
	s.rq.release()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// bothClosed reports whether the stream finished in both directions.
func (s *Stream) bothClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return (s.sentFin && s.recvFin) || s.rst != nil || s.closed
}

// LocalAddr returns the underlying connection's local address.
func (s *Stream) LocalAddr() net.Addr { return s.t.conn.LocalAddr() }

// RemoteAddr returns the underlying connection's remote address.
func (s *Stream) RemoteAddr() net.Addr { return s.t.conn.RemoteAddr() }

// SetDeadline implements net.Conn.
func (s *Stream) SetDeadline(t time.Time) error {
	if err := s.SetReadDeadline(t); err != nil {
		return err
	}
	return s.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn. A deadline in the past fails
// in-flight and future reads immediately, which is what the session
// layer's context plumbing relies on to abort a hung session.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rdl = t
	s.rtimer = armDeadline(s.rtimer, t, &s.cond, &s.mu)
	s.cond.Broadcast()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wdl = t
	s.wtimer = armDeadline(s.wtimer, t, &s.cond, &s.mu)
	s.cond.Broadcast()
	return nil
}

// armDeadline (re)schedules a wakeup broadcast for deadline t, reusing
// the stream's timer so per-I/O deadline refreshes do not allocate. The
// timer only broadcasts; the blocked operation itself re-checks its
// deadline against the clock, so a stale or early firing is harmless.
func armDeadline(timer *time.Timer, t time.Time, cond *sync.Cond, mu *sync.Mutex) *time.Timer {
	if timer != nil {
		timer.Stop()
	}
	if t.IsZero() {
		return timer
	}
	d := time.Until(t)
	if d <= 0 {
		// Already expired: the Broadcast after arming wakes waiters, and
		// their deadline check fails immediately.
		return timer
	}
	if timer == nil {
		return time.AfterFunc(d, func() {
			mu.Lock()
			cond.Broadcast()
			mu.Unlock()
		})
	}
	timer.Reset(d)
	return timer
}
