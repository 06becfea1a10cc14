package netupdate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/obs"
)

// gatedAlgo is a diff.Algorithm whose calls on one reference block until
// the test releases them; calls on any other reference pass straight
// through.
type gatedAlgo struct {
	inner   diff.Algorithm
	gated   []byte        // the reference whose Diff calls block
	calls   atomic.Int64  // Diff calls on the gated reference
	entered chan struct{} // one send per gated call, on entry
	release chan error    // one receive per gated call; non-nil fails it
}

func newGatedAlgo(gated []byte) *gatedAlgo {
	return &gatedAlgo{
		inner:   diff.NewLinear(),
		gated:   gated,
		entered: make(chan struct{}),
		release: make(chan error),
	}
}

func (g *gatedAlgo) Name() string { return "gated" }

func (g *gatedAlgo) Diff(ref, version []byte) (*delta.Delta, error) {
	if bytes.Equal(ref, g.gated) {
		g.calls.Add(1)
		g.entered <- struct{}{}
		if err := <-g.release; err != nil {
			return nil, err
		}
	}
	return g.inner.Diff(ref, version)
}

// waitEntered waits for a gated build to start.
func (g *gatedAlgo) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("gated build never started")
	}
}

// updateAsync runs one v2 update session from image in the background;
// the returned channel yields its outcome.
func updateAsync(t *testing.T, cc *ClientConn, srv *Server, image []byte) <-chan error {
	dev := deviceFor(t, image, 64<<10)
	out := make(chan error, 1)
	go func() {
		_, err := cc.Update(context.Background(), dev)
		if err == nil && !bytes.Equal(dev.Image(), srv.Current()) {
			err = errors.New("device image wrong")
		}
		out <- err
	}()
	return out
}

// await returns the outcome of one updateAsync session.
func await(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("session did not finish")
		return nil
	}
}

// waitCounter polls a registry counter until it reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counter(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Snapshot().Counter(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedServer serves history over loopback TCP with a gated differ on
// history[0] and returns it with an open v2 connection.
func gatedServer(t *testing.T, history [][]byte) (*Server, *gatedAlgo, *obs.Registry, *ClientConn) {
	t.Helper()
	g := newGatedAlgo(history[0])
	reg := obs.NewRegistry()
	srv, err := NewServer(history, WithAlgorithm(g), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Dial(context.Background(), serveTCP(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return srv, g, reg, cc
}

// TestServerBuildDoesNotBlockOtherReleases: while the build for release A
// is blocked, a session for an already-cached release B and one for a
// cold release C both complete.
func TestServerBuildDoesNotBlockOtherReleases(t *testing.T) {
	history := makeHistory(4, 16<<10, 71)
	srv, g, reg, cc := gatedServer(t, history)
	if err := await(t, updateAsync(t, cc, srv, history[1])); err != nil {
		t.Fatalf("warming release B: %v", err)
	}

	a := updateAsync(t, cc, srv, history[0])
	g.waitEntered(t)
	if err := await(t, updateAsync(t, cc, srv, history[1])); err != nil {
		t.Fatalf("cached release B behind a blocked build: %v", err)
	}
	if err := await(t, updateAsync(t, cc, srv, history[2])); err != nil {
		t.Fatalf("cold release C behind a blocked build: %v", err)
	}
	g.release <- nil
	if err := await(t, a); err != nil {
		t.Fatalf("release A: %v", err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"ipdelta_server_delta_cache_hits_total":   1,
		"ipdelta_server_delta_cache_misses_total": 3,
		"ipdelta_server_build_waits_total":        0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h := snap.Histograms["ipdelta_server_build_nanos"]; h.Count != 3 {
		t.Errorf("build_nanos count = %d, want 3", h.Count)
	}
}

// TestServerConcurrentColdSessionsShareOneBuild: N concurrent sessions for
// one cold release make exactly one Diff call, and all of them converge.
func TestServerConcurrentColdSessionsShareOneBuild(t *testing.T) {
	const sessions = 8
	history := makeHistory(2, 16<<10, 72)
	srv, g, reg, cc := gatedServer(t, history)

	done := make([]<-chan error, sessions)
	for i := range done {
		done[i] = updateAsync(t, cc, srv, history[0])
	}
	g.waitEntered(t)
	waitCounter(t, reg, "ipdelta_server_build_waits_total", sessions-1)
	g.release <- nil
	for i, d := range done {
		if err := await(t, d); err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("%d sessions made %d Diff calls, want 1", sessions, got)
	}
	if got := reg.Snapshot().Counter("ipdelta_server_delta_cache_misses_total"); got != 1 {
		t.Fatalf("cache misses = %d, want 1", got)
	}
}

// TestServerFailedBuildNotCached: a build that fails is not cached; every
// session waiting on it sees the failure, and the next session rebuilds
// and succeeds.
func TestServerFailedBuildNotCached(t *testing.T) {
	const sessions = 4
	history := makeHistory(2, 16<<10, 73)
	srv, g, reg, cc := gatedServer(t, history)

	done := make([]<-chan error, sessions)
	for i := range done {
		done[i] = updateAsync(t, cc, srv, history[0])
	}
	g.waitEntered(t)
	waitCounter(t, reg, "ipdelta_server_build_waits_total", sessions-1)
	g.release <- fmt.Errorf("injected diff failure")
	for i, d := range done {
		if err := await(t, d); err == nil {
			t.Errorf("session %d succeeded on a failed build", i)
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("failed build left %d cached deltas", n)
	}

	retry := updateAsync(t, cc, srv, history[0])
	g.waitEntered(t)
	g.release <- nil
	if err := await(t, retry); err != nil {
		t.Fatalf("rebuild after failure: %v", err)
	}
	if got := g.calls.Load(); got != 2 {
		t.Fatalf("Diff calls = %d, want 2 (failed build, then rebuild)", got)
	}
	waitCounter(t, reg, "ipdelta_server_session_failures_total", sessions)
}

// TestServerBuildAllocs: every Server diffs into the process-wide pool
// of differencer state and reads the delta from there, converts on a
// pooled Converter and encodes through a pooled writer, so the first
// build of a second Server over the same history allocates twice: the
// encoded bytes it caches (the bytes.Buffer and its one-shot growth). No
// diff output, fingerprint table, emitter, conversion scratch, validator
// spans or encode buffer.
func TestServerBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pools
	history := corpus.RecordChain(1, 256<<10, 5)
	const runs = 10
	servers := make([]*Server, runs+2) // one warms the pools; AllocsPerRun warms once more
	for k := range servers {
		srv, err := NewServer(history)
		if err != nil {
			t.Fatal(err)
		}
		servers[k] = srv
	}
	want, err := servers[0].build(0)
	if err != nil {
		t.Fatalf("warm-up build: %v", err)
	}
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		got, err := servers[next].build(0)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("a second server built different delta bytes")
		}
		next++
	})
	if allocs > 2 {
		t.Fatalf("first build on a fresh Server allocates %.1f times, want <= 2", allocs)
	}
}

// TestConcurrentServerBuilds: several servers over one history build
// every release at once, so builds on different goroutines share the
// differencer-state, converter and validator pools. Each must equal a
// serial build byte for byte; under -race this also shows no pooled
// scratch is shared between two builds.
func TestConcurrentServerBuilds(t *testing.T) {
	history := corpus.RecordChain(2, 128<<10, 5)
	serial, err := NewServer(history)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(history))
	for i := range history {
		if want[i], err = serial.Delta(i); err != nil {
			t.Fatalf("serial build %d: %v", i, err)
		}
	}
	const servers = 4
	var wg sync.WaitGroup
	for k := 0; k < servers; k++ {
		srv, err := NewServer(history)
		if err != nil {
			t.Fatal(err)
		}
		for i := range history {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := srv.Delta(i)
				if err != nil {
					t.Errorf("server %d release %d: %v", k, i, err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("server %d release %d: %d bytes differ from the serial build's %d", k, i, len(got), len(want[i]))
				}
			}()
		}
	}
	wg.Wait()
}
