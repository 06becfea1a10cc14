package netupdate

import (
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipdelta/internal/device"
)

// attemptThroughFlaky runs one session attempt for dev through a FlakyConn
// with the given profile, returning the session outcome and bytes crossed.
func attemptThroughFlaky(t *testing.T, s *Server, dev *device.Device, p FaultProfile) (Result, int64, error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		_ = s.handleSession(server)
	}()
	fc := NewFlakyConn(client, p)
	res, err := clientSession(context.Background(), fc, dev, 0, false)
	client.Close()
	<-done
	return res, fc.Transferred(), err
}

func TestResumeAtEveryMessageBoundary(t *testing.T) {
	history := makeHistory(2, 32<<10, 61)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 64 << 10

	// Probe a clean session through a no-fault FlakyConn to measure the
	// exact client-side byte stream of this (deterministic) session.
	probe := deviceFor(t, history[0], capacity)
	_, total, err := attemptThroughFlaky(t, s, probe, FaultProfile{})
	if err != nil {
		t.Fatalf("probe session: %v", err)
	}

	// Reconstruct the frame boundaries from the protocol's own encoders:
	// HELLO and STATUS sizes are computable, DELTA is whatever remains.
	helloLen := int64(len(frame(msgHello, encodeHello(hello{
		ImageCRC: 1, ImageLen: int64(len(history[0])), Capacity: capacity,
	}))))
	statusLen := int64(len(frame(msgStatus, encodeStatus(status{}))))
	ackLen := int64(len(frame(msgAck, encodeAck(true))))
	deltaLen := total - helloLen - statusLen - ackLen
	if deltaLen <= 0 {
		t.Fatalf("frame accounting broken: total=%d hello=%d status=%d ack=%d",
			total, helloLen, statusLen, ackLen)
	}

	cuts := []struct {
		name string
		at   int64
		// resumed: the clean retry continues an interrupted delta (the cut
		// landed mid-apply, after progress was persisted).
		resumed bool
		// upToDate: the retry finds nothing to do (the cut landed after the
		// delta was already fully applied).
		upToDate bool
	}{
		{name: "mid-hello", at: helloLen - 1},
		{name: "hello-boundary", at: helloLen},
		{name: "hello-boundary+1", at: helloLen + 1},
		{name: "mid-delta", at: helloLen + deltaLen/2, resumed: true},
		{name: "delta-boundary-1", at: helloLen + deltaLen - 1, resumed: true},
		{name: "delta-boundary", at: helloLen + deltaLen, upToDate: true},
		{name: "mid-status", at: helloLen + deltaLen + statusLen - 1, upToDate: true},
		{name: "status-boundary", at: helloLen + deltaLen + statusLen, upToDate: true},
		{name: "pre-ack", at: total - 1, upToDate: true},
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			dev := deviceFor(t, history[0], capacity)
			_, moved, err := attemptThroughFlaky(t, s, dev, FaultProfile{Seed: 1, DropAfterBytes: c.at})
			if err == nil {
				t.Fatalf("session survived a connection cut at byte %d", c.at)
			}
			if moved > c.at {
				t.Fatalf("connection moved %d bytes past its %d-byte cut", moved, c.at)
			}
			res, _, err := attemptThroughFlaky(t, s, dev, FaultProfile{})
			if err != nil {
				t.Fatalf("clean retry after cut at %d: %v", c.at, err)
			}
			if res.Resumed != c.resumed {
				t.Fatalf("retry resumed=%v, want %v", res.Resumed, c.resumed)
			}
			if res.UpToDate != c.upToDate {
				t.Fatalf("retry upToDate=%v, want %v", res.UpToDate, c.upToDate)
			}
			if !bytes.Equal(dev.Image(), s.Current()) {
				t.Fatal("device image wrong after retry")
			}
		})
	}
}

func TestThrottledConnConcurrentReads(t *testing.T) {
	a, b := net.Pipe()
	const payload = 16 << 10
	go func() {
		defer a.Close()
		buf := make([]byte, 1024)
		for k := 0; k < payload/len(buf); k++ {
			if _, err := a.Write(buf); err != nil {
				return
			}
		}
	}()

	// 1 Mbit/s -> 16 KiB should take ~128ms even when four goroutines
	// share the connection; the rate limit is global, not per reader.
	tc := NewThrottledConn(b, 1<<20)
	var got atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for {
				n, err := tc.Read(buf)
				got.Add(int64(n))
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if got.Load() != payload {
		t.Fatalf("read %d bytes, want %d", got.Load(), payload)
	}
	if elapsed < 80*time.Millisecond {
		t.Fatalf("4 concurrent readers finished in %v; the rate limit is being bypassed", elapsed)
	}
}

func TestThrottledFlakyConnCutsExactly(t *testing.T) {
	// The two wrappers compose: a throttled flaky conn still cuts at the
	// exact configured byte. (Exact cuts hold for sequential readers, the
	// way sessions use a connection; concurrent readers may race past the
	// boundary because the allowance is computed before the read happens.)
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		defer a.Close()
		buf := make([]byte, 256)
		for {
			if _, err := a.Write(buf); err != nil {
				return
			}
		}
	}()
	fc := NewFlakyConn(NewThrottledConn(b, 8<<20), FaultProfile{Seed: 3, DropAfterBytes: 4096})
	var got int64
	buf := make([]byte, 300)
	for {
		n, err := fc.Read(buf)
		got += int64(n)
		if err != nil {
			break
		}
	}
	if got != 4096 {
		t.Fatalf("flaky conn delivered %d bytes, want exactly 4096", got)
	}
	if fc.Transferred() != 4096 {
		t.Fatalf("transferred = %d", fc.Transferred())
	}
}
