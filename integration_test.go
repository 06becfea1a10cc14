package ipdelta_test

// The grand integration test: one scenario exercising every subsystem the
// repository builds — release history in a delta-chain store, composed
// forward deltas, in-place conversion with and without a scratch budget,
// the wire codec, the flash device with power-cut injection and resume,
// the TCP update protocol, and rollback via delta inversion.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"

	"ipdelta"
	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/device"
	"ipdelta/internal/graph"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/store"
)

// buildReleases creates a 4-release firmware history with both scattered
// edits and a block swap (so cycles appear).
func buildReleases(t *testing.T) [][]byte {
	t.Helper()
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: 64 << 10, ChangeRate: 0, Seed: 1001})
	releases := [][]byte{base.Ref}
	cur := base.Ref
	for k := 1; k <= 3; k++ {
		gen := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: len(cur), ChangeRate: 0.05, Seed: 1001 + int64(k)})
		v := append([]byte(nil), cur...)
		splice := len(v) / 8
		at := (k * 2 * splice) % (len(v) - splice)
		copy(v[at:at+splice], gen.Version[:splice])
		// A block swap for WR cycles.
		blk := len(v) / 16
		tmp := append([]byte(nil), v[:blk]...)
		copy(v[:blk], v[4*blk:5*blk])
		copy(v[4*blk:5*blk], tmp)
		releases = append(releases, v)
		cur = v
	}
	return releases
}

func TestGrandIntegration(t *testing.T) {
	releases := buildReleases(t)
	head := releases[len(releases)-1]

	// 1. Store the history as a delta chain; round-trip the container.
	st := store.New(releases[0])
	for _, v := range releases[1:] {
		if _, err := st.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := st.Save()
	if err != nil {
		t.Fatal(err)
	}
	st, err = store.Load(blob)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Composed direct delta v0→head, converted in place with a scratch
	// budget, carried over the scratch wire format.
	direct, err := st.DeltaBetween(0, len(releases)-1)
	if err != nil {
		t.Fatal(err)
	}
	ip, stats, err := ipdelta.ConvertInPlace(direct, releases[0], ipdelta.WithScratchBudget(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.CheckInPlace(); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := ipdelta.Encode(&wire, ip, ipdelta.FormatScratch); err != nil {
		t.Fatal(err)
	}
	t.Logf("v0→v3: %d commands, %d stashed, %d converted, %d wire bytes",
		len(ip.Commands), stats.StashedCopies, stats.ConvertedCopies, wire.Len())

	// 3. A device on v0 applies it with power cuts injected until done.
	capacity := ip.InPlaceBufLen() + ip.ScratchRequired()
	flash, err := device.NewFlash(releases[0], capacity)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(flash, int64(len(releases[0])), 512)
	enc := wire.Bytes()
	cuts := 0
	for fail := int64(5); ; fail += 23 {
		flash.FailAfterWrites(fail)
		err := dev.Apply(bytes.NewReader(enc))
		if err == nil {
			break
		}
		if !errors.Is(err, device.ErrPowerCut) {
			t.Fatalf("unexpected error: %v", err)
		}
		cuts++
		if cuts > 50000 {
			t.Fatal("apply never completed")
		}
	}
	flash.FailAfterWrites(-1)
	if !bytes.Equal(dev.Image(), head) {
		t.Fatalf("device not on head after %d power cuts", cuts)
	}

	// 4. A second device updates from an intermediate release over TCP.
	srv, err := netupdate.NewServer(releases)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(l)
	}()
	flash2, err := device.NewFlash(releases[1], 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	dev2 := device.New(flash2, int64(len(releases[1])), device.DefaultWorkBufSize)
	cc, err := netupdate.Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Update(context.Background(), dev2); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	if !bytes.Equal(dev2.Image(), head) {
		t.Fatal("TCP-updated device not on head")
	}

	// 5. Head turns out bad: roll the first device back to v2 in place.
	rb, _, err := st.RollbackDelta(2, graph.LocallyMinimum{})
	if err != nil {
		t.Fatal(err)
	}
	var rbWire bytes.Buffer
	if _, err := codec.Encode(&rbWire, rb, codec.FormatCompact); err != nil {
		t.Fatal(err)
	}
	if err := dev.Apply(&rbWire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Image(), releases[2]) {
		t.Fatal("rollback did not restore v2")
	}
	l.Close()
	wg.Wait()
}
