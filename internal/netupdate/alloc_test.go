package netupdate

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"ipdelta/internal/device"
)

// TestWarmSessionAllocBytes is the allocation gate for warm serving, the
// steady state of serve-warm: the delta is cached, and each session runs
// on a fresh stream of one long-lived connection, with a fresh Device over
// a reused flash. Client, server and transport together may allocate at
// most 2 KiB per session. Session buffers, the device's decoder and its
// working buffer are pooled, so what is left is small protocol messages
// and the per-stream and per-device structs.
func TestWarmSessionAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	const (
		image    = 1 << 20
		sessions = 200
		maxBytes = 2 << 10
	)
	history := makeHistory(3, image, 38)
	srv, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cc, err := Dial(ctx, serveTCP(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	flash, err := device.NewFlash(nil, 2*image)
	if err != nil {
		t.Fatal(err)
	}
	session := func(src int) {
		if err := flash.WriteAt(history[src], 0); err != nil {
			t.Fatal(err)
		}
		dev := device.New(flash, int64(len(history[src])), device.DefaultWorkBufSize)
		res, err := cc.Update(ctx, dev)
		if err != nil || res.UpToDate || res.FullImage {
			t.Fatalf("session from release %d: %+v, %v", src, res, err)
		}
	}
	// Build and cache both deltas and warm every pool.
	for k := 0; k < 20; k++ {
		session(k % 2)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < sessions; k++ {
		session(k % 2)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / sessions
	allocs := (after.Mallocs - before.Mallocs) / sessions
	t.Logf("warm session: %d bytes in %d allocations", per, allocs)
	if per > maxBytes {
		t.Fatalf("a warm session allocates %d bytes (%d allocations), want <= %d", per, allocs, maxBytes)
	}
}
