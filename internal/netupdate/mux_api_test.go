package netupdate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ipdelta/internal/netupdate/mux"
	"ipdelta/internal/obs"
)

// serveTCP starts srv on a loopback listener and returns its address.
func serveTCP(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		l.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after listener close")
		}
	})
	return l.Addr().String()
}

func TestV2SingleSessionOverTCP(t *testing.T) {
	history := makeHistory(2, 16<<10, 61)
	srv, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)

	cc, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cc.Close()
	dev := deviceFor(t, history[0], 64<<10)
	res, err := cc.Update(context.Background(), dev)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if res.UpToDate || res.FullImage {
		t.Fatalf("expected a delta session, got %+v", res)
	}
	if !bytes.Equal(dev.Image(), srv.Current()) {
		t.Fatal("device image wrong after v2 session")
	}
	// A second session on the same connection: up to date now.
	res, err = cc.Update(context.Background(), dev)
	if err != nil {
		t.Fatalf("second Update: %v", err)
	}
	if !res.UpToDate {
		t.Fatalf("expected up-to-date, got %+v", res)
	}
}

func TestV2ManySessionsOneConn(t *testing.T) {
	history := makeHistory(2, 8<<10, 62)
	reg := obs.NewRegistry()
	srv, err := NewServer(history, WithObserver(reg), WithStreamLimit(64))
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)

	cc, err := Dial(context.Background(), addr, WithStreamLimit(64))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cc.Close()

	const devices = 40
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := deviceFor(t, history[0], 32<<10)
			if _, err := cc.Update(context.Background(), dev); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(dev.Image(), srv.Current()) {
				errs <- errors.New("device image wrong")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["ipdelta_server_sessions_total"]; got != devices {
		t.Fatalf("server saw %d sessions, want %d", got, devices)
	}
}

// TestHandleConnRejectsV1Hello: a client that skips the v2 handshake and
// opens with a bare session HELLO — the retired v1 protocol — fails the
// handshake with a typed error, gets a closed connection instead of a
// hang, and is never admitted as a session. The small device makes the
// HELLO shorter than a frame header, so the refusal must come from the
// first byte.
func TestHandleConnRejectsV1Hello(t *testing.T) {
	history := makeHistory(2, 4<<10, 63)
	reg := obs.NewRegistry()
	srv, err := NewServer(history, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(frame(msgHello, encodeHello(hello{ImageLen: 4 << 10, Capacity: 8 << 10}))); n >= mux.HeaderLen {
		t.Fatalf("%d-byte HELLO does not exercise the first-byte check", n)
	}
	client, server := net.Pipe()
	defer client.Close()
	srvErr := make(chan error, 1)
	go func() {
		defer server.Close()
		srvErr <- srv.HandleConn(server)
	}()
	runErr := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), client, deviceFor(t, history[0], 8<<10))
		runErr <- err
	}()
	select {
	case err := <-srvErr:
		if !errors.Is(err, mux.ErrProtocol) {
			t.Fatalf("HandleConn error = %v, want mux.ErrProtocol", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HandleConn hung on a v1 HELLO")
	}
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("v1 session succeeded against a v2-only server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("v1 client hung after the server refused it")
	}
	if got := reg.Snapshot().Counters["ipdelta_server_sessions_total"]; got != 0 {
		t.Fatalf("server admitted %d sessions from a v1 peer", got)
	}
}

// TestHandleConnHandshakeTimeout: a peer that connects and never speaks
// cannot pin a server goroutine; the message timeout bounds the handshake.
func TestHandleConnHandshakeTimeout(t *testing.T) {
	const timeout = 250 * time.Millisecond
	srv, err := NewServer(makeHistory(2, 4<<10, 70), WithMessageTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		srvErr <- srv.HandleConn(conn)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	select {
	case err := <-srvErr:
		if elapsed := time.Since(start); elapsed > 2*timeout {
			t.Fatalf("handshake timed out after %v, want about %v", elapsed, timeout)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("HandleConn error = %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a silent peer pinned HandleConn")
	}
}

// TestV2ClientAgainstV1Server: a v2 client dialing a service that does
// not speak v2 (here, one that reads a request and hangs up) fails typed,
// not hung.
func TestV2ClientAgainstV1Server(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Reads whatever arrives, chokes on frames, and hangs up.
				buf := make([]byte, 256)
				conn.Read(buf)
			}()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = Dial(ctx, l.Addr().String())
	if err == nil {
		t.Fatal("Dial succeeded against a non-v2 server")
	}
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Dial error = %v, want ErrVersionMismatch", err)
	}
}

// TestClientRunnerOverStreams drives the retry Client with a per-attempt
// stream dialer on one shared connection.
func TestClientRunnerOverStreams(t *testing.T) {
	history := makeHistory(3, 8<<10, 64)
	srv, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)
	cc, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	cl := NewClient(
		WithMaxAttempts(4),
		WithSleep(func(context.Context, time.Duration) error { return nil }),
	)
	dev := deviceFor(t, history[1], 32<<10)
	rep, err := cl.Run(context.Background(), cc.Dialer(), dev)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("clean network took %d attempts", rep.Attempts)
	}
	if !bytes.Equal(dev.Image(), srv.Current()) {
		t.Fatal("device image wrong after runner-over-streams")
	}
}

// TestV2SessionFailureBudget: the failure budget applies per stream
// session, keyed by the connection's remote host.
func TestV2SessionFailureBudget(t *testing.T) {
	history := makeHistory(2, 4<<10, 65)
	srv, err := NewServer(history, WithFailureBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)
	cc, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// An unknown-version device fails its sessions, burning budget.
	junk := bytes.Repeat([]byte{0xAB}, 4096)
	for i := 0; i < 2; i++ {
		dev := deviceFor(t, junk, 32<<10)
		if _, err := cc.Update(context.Background(), dev); err == nil {
			t.Fatalf("unknown version session %d succeeded", i)
		}
	}
	// The server notes a failure after the client has seen it; wait for
	// both to land before the next session.
	deadline := time.Now().Add(5 * time.Second)
	for srv.admit("127.0.0.1") {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the failed sessions")
		}
		time.Sleep(time.Millisecond)
	}
	// Budget exhausted: the next session is refused outright.
	dev := deviceFor(t, history[0], 32<<10)
	_, err = cc.Update(context.Background(), dev)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("post-budget session error = %v, want ServerError", err)
	}
}

// TestV2Deadlines: MessageTimeout fires on a stalled stream instead of
// hanging the session forever.
func TestV2Deadlines(t *testing.T) {
	history := makeHistory(2, 4<<10, 66)
	srv, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)
	cc, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	// Open a raw stream and send nothing; our read must time out via the
	// stream deadline plumbing rather than block.
	st, err := cc.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := st.Read(buf); err == nil {
		t.Fatal("read on silent stream succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("stream read deadline did not fire")
	}
}

// TestV2ContextCancel: cancelling a session context aborts in-flight
// stream I/O (the cancelOnCtx SetDeadline path over mux).
func TestV2ContextCancel(t *testing.T) {
	history := makeHistory(2, 4<<10, 67)
	srv, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)
	cc, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	st, err := cc.OpenStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// A session against a server waiting for our hello: it will block
		// reading the reply until the context fires.
		dev := deviceFor(t, history[0], 32<<10)
		// Block the hello from completing by cancelling mid-flight.
		time.Sleep(10 * time.Millisecond)
		_, err := Run(ctx, st, dev)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		_ = err // aborted or completed-before-cancel are both acceptable
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled session never returned")
	}
}

// TestOptionSurfaceCovers pins the option constructors to the Config
// fields they set, so a renamed field cannot silently orphan an option.
func TestOptionSurfaceCovers(t *testing.T) {
	var c Config
	c.apply([]Option{
		WithMessageTimeout(time.Second),
		WithFailureBudget(3),
		WithStreamLimit(9),
		WithInitialWindow(1 << 20),
		WithMaxFrame(2 << 10),
		WithAcceptBacklog(5),
		WithRequestFull(true),
		WithMaxAttempts(2),
		WithBaseBackoff(time.Millisecond),
		WithMaxBackoff(time.Minute),
		WithFullFallbackAfter(7),
		WithSeed(42),
	})
	want := fmt.Sprintf("%v", Config{
		MessageTimeout:    time.Second,
		FailureBudget:     3,
		StreamLimit:       9,
		InitialWindow:     1 << 20,
		MaxFrame:          2 << 10,
		AcceptBacklog:     5,
		RequestFull:       true,
		MaxAttempts:       2,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        time.Minute,
		FullFallbackAfter: 7,
		Seed:              42,
	})
	if got := fmt.Sprintf("%v", c); got != want {
		t.Fatalf("options applied %s, want %s", got, want)
	}
	st := c.muxSettings()
	if st.MaxStreams != 9 || st.InitialWindow != 1<<20 || st.MaxFrame != 2<<10 || st.AcceptBacklog != 5 {
		t.Fatalf("muxSettings projection wrong: %+v", st)
	}
}

func TestFlakyConnOverStream(t *testing.T) {
	// FlakyConn wraps a mux stream exactly like a raw conn: the fault
	// injector needs only net.Conn.
	history := makeHistory(2, 8<<10, 69)
	srv, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	addr := serveTCP(t, srv)
	cc, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	cl := NewClient(
		WithMaxAttempts(8),
		WithSeed(7),
		WithSleep(func(context.Context, time.Duration) error { return nil }),
	)
	dials := 0
	dial := func(ctx context.Context) (net.Conn, error) {
		st, err := cc.OpenStream(ctx)
		if err != nil {
			return nil, err
		}
		dials++
		if dials <= 2 {
			// The first two attempts die mid-transfer; later ones run
			// clean, so the run converges by resuming where it stopped.
			return NewFlakyConn(st, FaultProfile{
				Seed:           uint64(7 + dials),
				DropAfterBytes: 64,
			}), nil
		}
		return st, nil
	}
	dev := deviceFor(t, history[0], 32<<10)
	rep, err := cl.Run(context.Background(), dial, dev)
	if err != nil {
		t.Fatalf("Run with faults over streams: %v (log: %v)", err, rep.FailureLog)
	}
	if !bytes.Equal(dev.Image(), srv.Current()) {
		t.Fatal("device did not converge through faulty streams")
	}
	if rep.Attempts < 2 {
		t.Fatalf("DropAfterBytes=3000 should force a retry, attempts=%d", rep.Attempts)
	}
}
