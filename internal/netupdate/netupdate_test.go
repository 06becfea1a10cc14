package netupdate

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/device"
	"ipdelta/internal/obs"
)

// makeHistory builds a release history of n successive versions.
func makeHistory(n int, size int, seed int64) [][]byte {
	history := make([][]byte, 0, n)
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: size, ChangeRate: 0.08, Seed: seed})
	history = append(history, pair.Ref, pair.Version)
	for len(history) < n {
		prev := history[len(history)-1]
		next := corpus.Generate(corpus.PairSpec{
			Profile: corpus.Binary, Size: len(prev), ChangeRate: 0.08, Seed: seed + int64(len(history)),
		})
		// Chain: mutate the previous release, not an unrelated file.
		history = append(history, mutateFrom(prev, next.Version))
	}
	return history[:n]
}

// mutateFrom grafts the tail of b onto the head of a to build a plausible
// successor version of a.
func mutateFrom(a, b []byte) []byte {
	out := append([]byte(nil), a...)
	k := len(out) / 4
	if k > len(b) {
		k = len(b)
	}
	copy(out[len(out)-k:], b[:k])
	return out
}

// deviceFor builds a device installed with the given image.
func deviceFor(t *testing.T, image []byte, capacity int64) *device.Device {
	t.Helper()
	flash, err := device.NewFlash(image, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return device.New(flash, int64(len(image)), device.DefaultWorkBufSize)
}

// runSession wires a client and the server's per-stream session handler
// over an in-memory pipe.
func runSession(t *testing.T, s *Server, dev *device.Device) (Result, error) {
	t.Helper()
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	var serverErr error
	go func() {
		defer wg.Done()
		defer server.Close()
		serverErr = s.handleSession(server)
	}()
	res, err := clientSession(context.Background(), client, dev, 0, false)
	client.Close()
	wg.Wait()
	if err == nil && serverErr != nil {
		t.Fatalf("server error after client success: %v", serverErr)
	}
	return res, err
}

// TestSessionReadsImageTwice: a clean session reads the whole image twice,
// once for the hello's CRC and once for confirm's. Apply reuses the
// hello's CRC, so beyond those passes the flash serves only the delta's
// copies.
func TestSessionReadsImageTwice(t *testing.T) {
	history := makeHistory(2, 32<<10, 36)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	flash, err := device.NewFlash(history[0], 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(flash, int64(len(history[0])), 1024)
	enc, err := s.Delta(0)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := codec.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSession(t, s, dev); err != nil {
		t.Fatal(err)
	}
	want := d.RefLen + d.CopiedBytes() + d.VersionLen
	if got := flash.Stats().BytesRead; got != want {
		t.Fatalf("session read %d flash bytes, want %d: one pass for the hello, %d for copies, one for confirm",
			got, want, d.CopiedBytes())
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image differs from the current release")
	}
}

func TestUpdateSession(t *testing.T) {
	history := makeHistory(3, 32<<10, 1)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], 64<<10)
	res, err := runSession(t, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpToDate || res.DeltaBytes == 0 {
		t.Fatalf("result = %+v", res)
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image is not the current version")
	}
	if res.DeltaBytes >= int64(len(s.Current())) {
		t.Fatalf("delta (%d bytes) not smaller than full image (%d)", res.DeltaBytes, len(s.Current()))
	}
	if s.ServedBytes() != res.DeltaBytes {
		t.Fatalf("server served %d, client got %d", s.ServedBytes(), res.DeltaBytes)
	}
}

func TestUpdateFromIntermediateVersion(t *testing.T) {
	history := makeHistory(4, 16<<10, 2)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[2], 64<<10)
	if _, err := runSession(t, s, dev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device not updated from intermediate version")
	}
}

func TestUpToDate(t *testing.T) {
	history := makeHistory(2, 8<<10, 3)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[1], 32<<10)
	res, err := runSession(t, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UpToDate || res.DeltaBytes != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestUnknownVersion(t *testing.T) {
	history := makeHistory(2, 8<<10, 4)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	stranger := corpus.Generate(corpus.PairSpec{Profile: corpus.Text, Size: 8 << 10, ChangeRate: 0, Seed: 99})
	dev := deviceFor(t, stranger.Ref, 32<<10)
	_, err = runSession(t, s, dev)
	if err == nil {
		t.Fatal("expected unknown-version error")
	}
}

func TestResumeAfterPowerCut(t *testing.T) {
	history := makeHistory(2, 64<<10, 5)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	flash, err := device.NewFlash(history[0], 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(flash, int64(len(history[0])), 512)

	// First session dies from a power cut mid-apply.
	flash.FailAfterWrites(10)
	_, err = runSession(t, s, dev)
	if !errors.Is(err, device.ErrPowerCut) {
		t.Fatalf("error = %v, want ErrPowerCut", err)
	}
	flash.FailAfterWrites(-1)
	if !dev.Updating() {
		t.Fatal("device lost pending state")
	}

	// Second session resumes and completes.
	res, err := runSession(t, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("second session did not resume")
	}
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image wrong after resume")
	}
}

func TestServeOverTCP(t *testing.T) {
	history := makeHistory(2, 16<<10, 6)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(l) // returns when the listener closes
	}()

	dev := deviceFor(t, history[0], 64<<10)
	cc, err := Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Update(context.Background(), dev); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	if !bytes.Equal(dev.Image(), s.Current()) {
		t.Fatal("device image wrong over TCP")
	}
	l.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("accepted empty history")
	}
}

func TestCapacityTooSmall(t *testing.T) {
	history := makeHistory(2, 16<<10, 7)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceFor(t, history[0], int64(len(history[0]))) // no headroom
	// If the new version is larger than capacity the server must refuse.
	if int64(len(s.Current())) > dev.FlashCapacity() {
		if _, err := runSession(t, s, dev); err == nil {
			t.Fatal("expected capacity error")
		}
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(1000, 8000); got != time.Second {
		t.Fatalf("TransferTime = %v, want 1s", got)
	}
	if got := TransferTime(1000, 0); got != 0 {
		t.Fatalf("TransferTime with zero rate = %v", got)
	}
}

func TestThrottledConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const payload = 4096
	go func() {
		buf := make([]byte, payload)
		_, _ = a.Write(buf)
	}()
	// 64 KiB/s -> 4 KiB should take ~62ms.
	tc := NewThrottledConn(b, 64<<10*8)
	start := time.Now()
	buf := make([]byte, payload)
	got := 0
	for got < payload {
		n, err := tc.Read(buf[got:])
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	elapsed := time.Since(start)
	if elapsed < 40*time.Millisecond {
		t.Fatalf("throttled read finished in %v, too fast", elapsed)
	}
}

func TestHelloStatusRoundTrip(t *testing.T) {
	h := hello{Updating: true, ImageCRC: 0xDEADBEEF, ImageLen: 12345, Capacity: 99999}
	got, err := decodeHello(encodeHello(h))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if _, err := decodeHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello accepted")
	}
	st := status{OK: true, ImageCRC: 0xCAFEBABE}
	got2, err := decodeStatus(encodeStatus(st))
	if err != nil || got2 != st {
		t.Fatalf("status round trip: %+v, %v", got2, err)
	}
	if _, err := decodeStatus([]byte{1}); err == nil {
		t.Fatal("short status accepted")
	}
}

func TestConcurrentFleetOverTCP(t *testing.T) {
	history := makeHistory(3, 16<<10, 8)
	s, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(l)
	}()

	// 16 devices on mixed releases update concurrently.
	const fleet = 16
	errs := make(chan error, fleet)
	var wg sync.WaitGroup
	for k := 0; k < fleet; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			img := history[k%2] // releases 0 and 1
			flash, err := device.NewFlash(img, 64<<10)
			if err != nil {
				errs <- err
				return
			}
			dev := device.New(flash, int64(len(img)), 512)
			cc, err := Dial(context.Background(), l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cc.Close()
			if _, err := cc.Update(context.Background(), dev); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(dev.Image(), s.Current()) {
				errs <- errors.New("device image mismatch")
				return
			}
			errs <- nil
		}(k)
	}
	wg.Wait()
	for k := 0; k < fleet; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	<-done
	// The cache means the server diffs each source release only once; all
	// devices are counted in served bytes.
	if s.ServedBytes() == 0 {
		t.Fatal("no bytes served")
	}
}

// TestServerOneBuildPerRelease: sessions from every old release, run
// twice, build each release's delta exactly once; the second round is
// served from the cache. Every cached payload is a compact in-place delta
// that brings a device on its release to the current version.
func TestServerOneBuildPerRelease(t *testing.T) {
	releases := makeHistory(5, 16<<10, 10)
	history := releases[:len(releases)-1] // the releases devices update from
	reg := obs.NewRegistry()
	s, err := NewServer(releases, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, img := range history {
			dev := deviceFor(t, img, 64<<10)
			if _, err := runSession(t, s, dev); err != nil {
				t.Fatalf("round %d, release %d: %v", round, i, err)
			}
			if !bytes.Equal(dev.Image(), s.Current()) {
				t.Fatalf("round %d, release %d: device image wrong", round, i)
			}
		}
	}
	snap := reg.Snapshot()
	n := int64(len(history))
	for name, want := range map[string]int64{
		"ipdelta_server_delta_cache_misses_total": n,
		"ipdelta_server_delta_cache_hits_total":   n,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["ipdelta_server_cached_deltas"]; got != n {
		t.Errorf("ipdelta_server_cached_deltas = %d, want %d", got, n)
	}

	for i, img := range history {
		enc, err := s.Delta(i)
		if err != nil {
			t.Fatal(err)
		}
		d, f, err := codec.Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
		if f != codec.FormatCompact {
			t.Errorf("release %d: payload format %v, want %v", i, f, codec.FormatCompact)
		}
		if err := d.CheckInPlace(); err != nil {
			t.Errorf("release %d: %v", i, err)
		}
		dev := deviceFor(t, img, 64<<10)
		if err := dev.Apply(bytes.NewReader(enc)); err != nil {
			t.Fatalf("release %d: apply: %v", i, err)
		}
		if !bytes.Equal(dev.Image(), s.Current()) {
			t.Errorf("release %d: payload does not rebuild the current version", i)
		}
	}
	if _, err := s.Delta(len(releases)); err == nil {
		t.Error("Delta accepted a release index outside the history")
	}
}
