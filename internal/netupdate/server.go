package netupdate

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/lru"
	"ipdelta/internal/netupdate/mux"
	"ipdelta/internal/obs"
)

// ErrBudgetExhausted reports a client that burned through its server-side
// failure budget and is being turned away without a session.
var ErrBudgetExhausted = errors.New("netupdate: client exceeded its failure budget")

// Server distributes the newest version of one image as in-place
// reconstructible deltas against any version in its release history.
type Server struct {
	history [][]byte // oldest first; last entry is current
	crcs    []uint32
	algo    diff.Algorithm

	msgTimeout time.Duration
	failBudget int
	muxSet     mux.Settings

	met *serverMetrics
	log *slog.Logger

	cache    *lru.Cache[int, []byte] // encoded delta per source release index
	mu       sync.Mutex              // guards failures
	failures map[string]int          // consecutive failed sessions per client

	// served counts delta payload bytes sent, for transfer accounting.
	served atomic.Int64
}

// NewServer creates a server for the given release history (oldest first).
// The last entry is the version devices are upgraded to.
func NewServer(history [][]byte, opts ...ServerOption) (*Server, error) {
	if len(history) == 0 {
		return nil, fmt.Errorf("netupdate: empty release history")
	}
	cfg := serverConfig(opts)
	s := &Server{
		history:    history,
		algo:       cfg.algorithm,
		msgTimeout: cfg.messageTimeout,
		failBudget: cfg.failureBudget,
		log:        obs.OrNop(cfg.logger),
		muxSet:     cfg.mux,
		met:        resolveServerMetrics(cfg.observer),
		failures:   make(map[string]int),
	}
	// A nil cost counts entries: one delta per release, so the budget
	// never evicts.
	s.cache = lru.New[int, []byte](int64(len(history)), nil, nil, s.met.buildWaited)
	s.crcs = make([]uint32, len(history))
	for k, v := range history {
		s.crcs[k] = crc32.ChecksumIEEE(v)
	}
	return s, nil
}

// Current returns the newest version image.
func (s *Server) Current() []byte { return s.history[len(s.history)-1] }

// ServedBytes returns the total delta payload bytes sent so far.
func (s *Server) ServedBytes() int64 { return s.served.Load() }

// findVersion returns the history index matching the CRC and length.
func (s *Server) findVersion(crc uint32, length int64) (int, bool) {
	for k := range s.history {
		if s.crcs[k] == crc && int64(len(s.history[k])) == length {
			return k, true
		}
	}
	return 0, false
}

// Delta returns the encoded in-place delta from release i of the history
// to the current version, building and caching it on the first call.
// Concurrent callers for one cold release share one build, and no lock is
// held across it, so callers for other releases proceed. A failed build
// is not cached: its waiters get the error and the next call rebuilds.
// The returned bytes are shared between callers and must not be modified.
func (s *Server) Delta(i int) ([]byte, error) {
	if i < 0 || i >= len(s.history) {
		return nil, fmt.Errorf("netupdate: release %d outside a history of %d", i, len(s.history))
	}
	enc, o, err := s.cache.Do(i, func() ([]byte, error) {
		s.met.cacheMisses.Inc()
		return s.build(i)
	})
	switch {
	case o == lru.Hit:
		s.met.cacheHits.Inc()
	case o == lru.Miss && err == nil:
		// The cache never evicts, so each successful build adds one delta.
		s.met.cachedDeltas.Add(1)
	}
	return enc, err
}

// converters pools the Converters every Server builds on. A build keeps
// only the encoded bytes, so it converts into a converter's own buffers,
// encodes from them and puts the converter back.
var converters = sync.Pool{New: func() any {
	return inplace.NewConverter(inplace.WithPolicy(graph.LocallyMinimum{}))
}}

// build runs diff → in-place convert → compact encode for history[i]
// against the current version. Cycles are broken under the
// locally-minimum policy, the paper's default. Only the encoded bytes
// outlive the build, so a *diff.Linear differ lends its delta from its
// pooled memory until the encode is done; any other Algorithm returns a
// delta of its own.
func (s *Server) build(i int) ([]byte, error) {
	defer s.met.buildStage.Start().End()
	ref := s.history[i]
	var d *delta.Delta
	if l, ok := s.algo.(*diff.Linear); ok {
		b := l.DiffBorrowed(ref, s.Current())
		defer b.Release()
		d = b.Delta()
	} else {
		var err error
		if d, err = s.algo.Diff(ref, s.Current()); err != nil {
			return nil, fmt.Errorf("netupdate diff: %w", err)
		}
	}
	cv := converters.Get().(*inplace.Converter)
	defer func() {
		cv.Reset()
		converters.Put(cv)
	}()
	ip, _, err := cv.Convert(d, ref)
	if err != nil {
		return nil, fmt.Errorf("netupdate convert: %w", err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, ip, codec.FormatCompact); err != nil {
		return nil, fmt.Errorf("netupdate encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Serve accepts connections until the listener is closed, handling each in
// its own goroutine. It returns the listener's error (net.ErrClosed after
// a clean Close).
func (s *Server) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			_ = s.HandleConn(conn) // per-connection errors end that session only
		}()
	}
}

// clientKey identifies a client for failure accounting: the remote host
// without the (per-connection) port.
func clientKey(addr net.Addr) string {
	if addr == nil {
		return ""
	}
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	return host
}

// admit reports whether the client still has failure budget.
func (s *Server) admit(key string) bool {
	if s.failBudget <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures[key] < s.failBudget
}

// note records one session outcome against the client's failure budget.
func (s *Server) note(key string, err error) {
	if s.failBudget <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		delete(s.failures, key)
	} else {
		s.failures[key]++
	}
}

// addServed accumulates payload transfer accounting.
func (s *Server) addServed(n int64) {
	s.served.Add(n)
	s.met.bytesServed.Add(n)
}

// HandleConn serves one protocol-v2 connection: one update session per
// accepted stream, each under the per-client failure budget. A peer that
// does not open with a v2 SETTINGS frame fails the handshake with a typed
// mux.ErrProtocol error. HandleConn returns nil when the peer shut down
// deliberately (GOAWAY or clean close) and the transport's terminal error
// otherwise.
func (s *Server) HandleConn(conn net.Conn) error {
	if s.msgTimeout > 0 {
		// A peer that connects and never speaks cannot pin the worker in
		// the handshake.
		_ = conn.SetDeadline(time.Now().Add(s.msgTimeout))
	}
	tr, err := mux.Server(conn, s.muxSet)
	if s.msgTimeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	if err != nil {
		return err
	}
	defer tr.Close()
	s.met.muxConns.Add(1)
	defer s.met.muxConns.Add(-1)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		st, err := tr.Accept()
		if err != nil {
			if errors.Is(err, mux.ErrGoAway) || errors.Is(err, mux.ErrClosed) {
				return nil
			}
			s.log.Warn("mux transport failed",
				"component", "server", "remote", clientKey(conn.RemoteAddr()),
				"outcome", "error", "err", err)
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			s.met.muxStreams.Add(1)
			defer s.met.muxStreams.Add(-1)
			_ = s.handleSession(st) // per-stream errors end that session only
		}()
	}
}

// handleSession serves one update session on one v2 stream (or any
// net.Conn speaking the session protocol), enforcing the per-client
// failure budget around it.
func (s *Server) handleSession(conn net.Conn) error {
	// The key formats the remote address, which allocates; only the
	// failure budget and an enabled logger read it. The start time is
	// read only for the log lines (Info implies Warn).
	logged := s.log.Enabled(context.Background(), slog.LevelWarn)
	var key string
	if s.failBudget > 0 || logged {
		key = clientKey(conn.RemoteAddr())
	}
	if !s.admit(key) {
		s.met.budgetRejects.Inc()
		s.log.Warn("session rejected",
			"component", "server", "remote", key, "outcome", "budget-reject")
		// Consume the client's hello first: over an unbuffered transport
		// (net.Pipe) the client blocks writing it, and writing our rejection
		// before reading would deadlock both sides.
		r, w := sessionBufs(withDeadlines(conn, s.msgTimeout))
		defer putSessionBufs(r, w)
		if _, err := readMsg(r, msgHello); err == nil && writeMsg(w, msgError, []byte("failure budget exhausted")) == nil {
			_ = w.Flush()
		}
		return ErrBudgetExhausted
	}
	s.met.sessions.Inc()
	span := s.met.sessionStage.Start()
	var start time.Time
	if logged {
		start = time.Now()
	}
	err := s.session(conn)
	span.End()
	if err != nil {
		s.met.sessionFailures.Inc()
	}
	switch {
	case !logged:
	case err != nil:
		s.log.Warn("session failed",
			"component", "server", "remote", key, "outcome", "error",
			"duration_ms", time.Since(start).Milliseconds(), "err", err)
	case s.log.Enabled(context.Background(), slog.LevelInfo):
		s.log.Info("session done",
			"component", "server", "remote", key, "outcome", "ok",
			"duration_ms", time.Since(start).Milliseconds())
	}
	s.note(key, err)
	return err
}

// readTimed and writeTimed are the protocol helpers under the server's
// per-message latency histograms; writeTimed also flushes, so the timing
// covers the bytes actually reaching the transport.
func (s *Server) readTimed(r *bufio.Reader, want byte) ([]byte, error) {
	sp := s.met.msgReadStage.Start()
	payload, err := readMsg(r, want)
	sp.End()
	return payload, err
}

func (s *Server) writeTimed(w *bufio.Writer, typ byte, payload []byte) error {
	sp := s.met.msgWriteStage.Start()
	err := writeMsg(w, typ, payload)
	if err == nil {
		err = w.Flush()
	}
	sp.End()
	return err
}

// session runs the update protocol once on conn.
func (s *Server) session(conn net.Conn) error {
	c := withDeadlines(conn, s.msgTimeout)
	r, w := sessionBufs(c)
	defer putSessionBufs(r, w)
	defer w.Flush()

	payload, err := s.readTimed(r, msgHello)
	if err != nil {
		return err
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}

	current := s.Current()
	currentCRC := s.crcs[len(s.crcs)-1]
	if int64(len(current)) > h.Capacity {
		_ = s.writeTimed(w, msgError, []byte("device flash too small for new version"))
		return fmt.Errorf("netupdate: device capacity %d < version %d", h.Capacity, len(current))
	}

	if h.WantFull {
		// Degradation path: ship the whole current image.
		if err := s.writeTimed(w, msgFull, current); err != nil {
			return err
		}
		s.met.fullSessions.Inc()
		s.addServed(int64(len(current)))
		return s.confirm(r, w, currentCRC)
	}

	if !h.Updating && h.ImageCRC == currentCRC && h.ImageLen == int64(len(current)) {
		s.met.upToDate.Inc()
		return s.writeTimed(w, msgUpToDate, nil)
	}

	idx, ok := s.findVersion(h.ImageCRC, h.ImageLen)
	if !ok {
		s.met.unknownVersion.Inc()
		_ = s.writeTimed(w, msgError, []byte(ErrUnknownVersion.Error()))
		return ErrUnknownVersion
	}
	enc, err := s.Delta(idx)
	if err != nil {
		_ = s.writeTimed(w, msgError, []byte("internal error"))
		return err
	}
	if err := s.writeTimed(w, msgDelta, enc); err != nil {
		return err
	}
	s.met.deltaSessions.Inc()
	s.addServed(int64(len(enc)))
	return s.confirm(r, w, currentCRC)
}

// confirm reads the device's STATUS, answers with an ACK carrying the
// server's verdict, and reports a CRC mismatch as an error. The explicit
// ACK is what lets a device learn its flash was corrupted in flight and
// fall back to a full image instead of booting a bad version.
func (s *Server) confirm(r *bufio.Reader, w *bufio.Writer, currentCRC uint32) error {
	payload, err := s.readTimed(r, msgStatus)
	if err != nil {
		return err
	}
	st, err := decodeStatus(payload)
	if err != nil {
		return err
	}
	ok := st.OK && st.ImageCRC == currentCRC
	if err := s.writeTimed(w, msgAck, encodeAck(ok)); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("netupdate: device reported failure (ok=%v crc=%08x want %08x)", st.OK, st.ImageCRC, currentCRC)
	}
	return nil
}
