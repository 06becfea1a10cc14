package netupdate

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ipdelta/internal/corpus"
	"ipdelta/internal/device"
)

// noBackoff collapses the retry schedule for fast tests.
func noBackoff(ctx context.Context, d time.Duration) error { return ctx.Err() }

// pipeDial returns a DialFunc connecting to the server's per-stream
// session handler over a synchronous in-memory pipe, wrapping the client
// end with wrap (nil for a clean connection).
func pipeDial(s *Server, wrap func(attempt int, c net.Conn) net.Conn) DialFunc {
	attempt := 0
	return func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			_ = s.handleSession(server)
		}()
		attempt++
		if wrap == nil {
			return client, nil
		}
		return wrap(attempt, client), nil
	}
}

func TestRunnerRetriesTransientAndResumes(t *testing.T) {
	history := makeHistory(2, 48<<10, 31)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], 96<<10)
	// The first two connections die mid-delta; later ones are clean.
	dial := pipeDial(s, func(attempt int, c net.Conn) net.Conn {
		if attempt <= 2 {
			return NewFlakyConn(c, FaultProfile{Seed: 5, DropAfterBytes: int64(600 * attempt)})
		}
		return c
	})
	ru := NewClient(WithMaxAttempts(5), WithSleep(noBackoff), WithSeed(1))
	rep, err := ru.Run(context.Background(), dial, dev)
	if err != nil {
		t.Fatalf("run: %v (log: %v)", err, rep.FailureLog)
	}
	if rep.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", rep.Attempts)
	}
	if !rep.Result.Resumed {
		t.Fatal("third attempt did not resume the interrupted update")
	}
	if rep.FellBack || rep.Result.FullImage {
		t.Fatal("transient retries must not degrade to a full image")
	}
	if len(rep.FailureLog) != 2 {
		t.Fatalf("failure log = %v", rep.FailureLog)
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image wrong after retries")
	}
}

func TestRunnerFallsBackOnUnknownVersion(t *testing.T) {
	history := makeHistory(2, 16<<10, 32)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	stranger := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 16 << 10, ChangeRate: 0, Seed: 501})
	dev := deviceFor(t, stranger.Ref, 64<<10)
	ru := NewClient(WithMaxAttempts(4), WithSleep(noBackoff))
	rep, err := ru.Run(context.Background(), pipeDial(s, nil), dev)
	if err != nil {
		t.Fatalf("run: %v (log: %v)", err, rep.FailureLog)
	}
	if !rep.FellBack || !rep.Result.FullImage {
		t.Fatalf("report = %+v, want full-image fallback", rep)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one rejection, one full transfer)", rep.Attempts)
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image wrong after full fallback")
	}
}

func TestRunnerFallsBackAfterConsecutiveDeltaFailures(t *testing.T) {
	history := makeHistory(2, 32<<10, 33)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], 64<<10)
	// Two doomed delta attempts, then clean transport: with
	// FullFallbackAfter=2 the third attempt must request the full image.
	dial := pipeDial(s, func(attempt int, c net.Conn) net.Conn {
		if attempt <= 2 {
			return NewFlakyConn(c, FaultProfile{Seed: 9, DropAfterBytes: 512})
		}
		return c
	})
	ru := NewClient(WithMaxAttempts(6), WithFullFallbackAfter(2), WithSleep(noBackoff))
	rep, err := ru.Run(context.Background(), dial, dev)
	if err != nil {
		t.Fatalf("run: %v (log: %v)", err, rep.FailureLog)
	}
	if !rep.FellBack || !rep.Result.FullImage {
		t.Fatalf("report = %+v, want degradation to full image", rep)
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image wrong after degradation")
	}
}

// corruptingStore flips a byte of one write, silently: the written image
// differs from what the server distributed, which only the CRC ack catches.
type corruptingStore struct {
	device.Store
	writesLeft int
}

func (c *corruptingStore) WriteAt(p []byte, off int64) error {
	c.writesLeft--
	if c.writesLeft == 0 {
		p = append([]byte(nil), p...)
		p[0] ^= 0xFF
	}
	return c.Store.WriteAt(p, off)
}

func TestRunnerImageRejectionTriggersFullFallback(t *testing.T) {
	history := makeHistory(2, 32<<10, 34)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	flash, err := device.NewFlash(history[0], 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	store := &corruptingStore{Store: flash, writesLeft: 5}
	dev := device.New(store, int64(len(history[0])), 1024)

	// Single clean session: applies, reports a wrong CRC, gets rejected.
	conn, srvConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		_ = s.handleSession(srvConn)
	}()
	_, err = clientSession(context.Background(), conn, dev, 0, false)
	conn.Close()
	if !errors.Is(err, ErrImageRejected) {
		t.Fatalf("error = %v, want ErrImageRejected", err)
	}

	// The runner turns that rejection into a full-image transfer.
	ru := NewClient(WithMaxAttempts(4), WithSleep(noBackoff))
	rep, err := ru.Run(context.Background(), pipeDial(s, nil), dev)
	if err != nil {
		t.Fatalf("run: %v (log: %v)", err, rep.FailureLog)
	}
	if !rep.FellBack || !rep.Result.FullImage {
		t.Fatalf("report = %+v, want full-image fallback", rep)
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image wrong after recovery from corruption")
	}
}

func TestRunnerExhaustsBudget(t *testing.T) {
	history := makeHistory(2, 16<<10, 35)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], 64<<10)
	dial := pipeDial(s, func(attempt int, c net.Conn) net.Conn {
		return NewFlakyConn(c, FaultProfile{Seed: uint64(attempt), DropAfterBytes: 4})
	})
	ru := NewClient(WithMaxAttempts(3), WithFullFallbackAfter(-1), WithSleep(noBackoff))
	rep, err := ru.Run(context.Background(), dial, dev)
	if err == nil {
		t.Fatal("doomed transport converged")
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("error = %v, want wrapped ErrInjectedFault", err)
	}
	if rep.Attempts != 3 || len(rep.FailureLog) != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.FellBack {
		t.Fatal("fallback disabled but report says it fell back")
	}
}

func TestRunnerContextCancel(t *testing.T) {
	history := makeHistory(2, 16<<10, 36)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], 64<<10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ru := NewClient(WithMaxAttempts(3))
	if _, err := ru.Run(ctx, pipeDial(s, nil), dev); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestSessionMessageTimeout(t *testing.T) {
	history := makeHistory(2, 16<<10, 37)
	dev := deviceFor(t, history[0], 64<<10)
	// The peer consumes the hello and then goes silent.
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		_, _ = io.Copy(io.Discard, server)
	}()
	start := time.Now()
	_, err := clientSession(context.Background(), client, dev, 50*time.Millisecond, false)
	client.Close()
	if err == nil {
		t.Fatal("stalled session succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if classify(err) != classTransient {
		t.Fatal("timeouts must classify as transient")
	}
}

func TestSessionContextCancelAbortsIO(t *testing.T) {
	history := makeHistory(2, 16<<10, 38)
	dev := deviceFor(t, history[0], 64<<10)
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		_, _ = io.Copy(io.Discard, server) // silent peer
	}()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := clientSession(ctx, client, dev, 0, false)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled session succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not abort the blocked session")
	}
	client.Close()
}

func TestServerFailureBudget(t *testing.T) {
	history := makeHistory(2, 16<<10, 39)
	s, err := NewServer(history, WithFailureBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	stranger := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 16 << 10, ChangeRate: 0, Seed: 502})

	failOnce := func() error {
		dev := deviceFor(t, stranger.Ref, 64<<10)
		_, err := runSession(t, s, dev)
		return err
	}
	// Two failures consume the budget (net.Pipe peers share one key).
	for k := 0; k < 2; k++ {
		if err := failOnce(); err == nil {
			t.Fatal("stranger session succeeded")
		}
	}
	// The third connection is turned away before the protocol starts.
	client, server := net.Pipe()
	handlerErr := make(chan error, 1)
	go func() {
		defer server.Close()
		handlerErr <- s.handleSession(server)
	}()
	dev := deviceFor(t, history[0], 64<<10)
	_, err = clientSession(context.Background(), client, dev, 0, false)
	client.Close()
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("client error = %v, want ServerError", err)
	}
	if got := <-handlerErr; !errors.Is(got, ErrBudgetExhausted) {
		t.Fatalf("handler error = %v, want ErrBudgetExhausted", got)
	}

	// A fresh server with budget: success resets the counter.
	s2, err := NewServer(history, WithFailureBudget(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := func() error {
		dev := deviceFor(t, stranger.Ref, 64<<10)
		_, err := runSession(t, s2, dev)
		return err
	}(); err == nil {
		t.Fatal("stranger session succeeded")
	}
	good := deviceFor(t, history[0], 64<<10)
	if _, err := runSession(t, s2, good); err != nil {
		t.Fatalf("good session after one failure: %v", err)
	}
	// Counter was reset: two more failures are needed to trip the budget.
	for k := 0; k < 2; k++ {
		if err := func() error {
			dev := deviceFor(t, stranger.Ref, 64<<10)
			_, err := runSession(t, s2, dev)
			return err
		}(); err == nil {
			t.Fatal("stranger session succeeded")
		}
	}
	client2, server2 := net.Pipe()
	go func() {
		defer server2.Close()
		_ = s2.handleSession(server2)
	}()
	dev2 := deviceFor(t, history[0], 64<<10)
	_, err = clientSession(context.Background(), client2, dev2, 0, false)
	client2.Close()
	if !errors.As(err, &se) {
		t.Fatalf("client error = %v, want budget rejection", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want errClass
	}{
		{context.Canceled, classFatal},
		{device.ErrImageTooLarge, classFatal},
		{device.ErrPowerCut, classTransient},
		{device.ErrTransientIO, classTransient},
		{ErrInjectedFault, classTransient},
		{io.ErrUnexpectedEOF, classTransient},
		{ErrProtocol, classTransient},
		{ErrImageRejected, classDegrade},
		{device.ErrResumeMismatch, classDegrade},
		{device.ErrWrongVersion, classDegrade},
		{&ServerError{Msg: "unknown version"}, classDegrade},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
