package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/corpus"
	"ipdelta/internal/graph"
	"ipdelta/internal/obs"
)

// checkAllVersions checks that s serves every one of versions.
func checkAllVersions(t *testing.T, s *Store, versions [][]byte, label string) {
	t.Helper()
	for i, want := range versions {
		got, err := s.Version(i)
		if err != nil {
			t.Fatalf("%s: Version(%d): %v", label, i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Version(%d) differs", label, i)
		}
	}
}

// churnedVersions builds a version history with blocky churn: each
// version overwrites a region and appends a little, so consecutive
// versions share most of their chunks.
func churnedVersions(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	base := make([]byte, size)
	rng.Read(base)
	out := [][]byte{base}
	for v := 1; v < n; v++ {
		prev := out[v-1]
		next := append([]byte(nil), prev...)
		lo := rng.Intn(len(next) - 8<<10)
		rng.Read(next[lo : lo+8<<10])
		tail := make([]byte, 2<<10)
		rng.Read(tail)
		out = append(out, append(next, tail...))
	}
	return out
}

func TestChunkedStoreRoundtrip(t *testing.T) {
	reg := obs.NewRegistry()
	versions := churnedVersions(1, 5, 256<<10)
	s := New(versions[0], WithChunking(nil), WithObserver(reg))
	for _, v := range versions[1:] {
		if _, err := s.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range versions {
		got, err := s.Version(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d: chunked materialization mismatch", i)
		}
	}
	// Direct deltas between arbitrary endpoints come from recipe diffs.
	for _, pair := range [][2]int{{0, 4}, {1, 3}, {0, 1}, {2, 2}} {
		d, err := s.DeltaBetween(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("delta %v invalid: %v", pair, err)
		}
		got, err := d.Apply(versions[pair[0]])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, versions[pair[1]]) {
			t.Fatalf("delta %v does not reconstruct", pair)
		}
	}
	// The acceptance check: consecutive versions share most chunks, so
	// dedup counters must show real cross-version sharing.
	snap := reg.Snapshot()
	if hits := snap.Counters["ipdelta_chunk_dedup_hits_total"]; hits == 0 {
		t.Fatal("no cross-version chunk sharing recorded")
	}
	if saved := snap.Counters["ipdelta_chunk_dedup_bytes_saved_total"]; saved < 512<<10 {
		t.Fatalf("bytes saved %d — churned history should dedup most content", saved)
	}
	if st, ok := s.ChunkStats(); !ok || st.Chunks == 0 {
		t.Fatalf("ChunkStats = %+v, %v", st, ok)
	}
}

func TestChunkedStoreCrossTenantDedup(t *testing.T) {
	reg := obs.NewRegistry()
	shared := chunk.NewStore(chunk.WithObserver(reg))
	versions := churnedVersions(2, 3, 128<<10)

	a := New(versions[0], WithChunking(shared))
	b := New(versions[0], WithChunking(shared)) // second tenant, same base
	for _, v := range versions[1:] {
		if _, err := a.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	// Tenant b ingested nothing new: all its content was already resident
	// from tenant a, so at least the whole second copy is saved.
	if saved := snap.Counters["ipdelta_chunk_dedup_bytes_saved_total"]; saved < int64(len(versions[0])) {
		t.Fatalf("cross-tenant bytes saved %d, want at least one base image (%d)", saved, len(versions[0]))
	}
	for i, want := range versions {
		got, err := b.Version(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("tenant b version %d wrong (%v)", i, err)
		}
	}
}

// TestChunkedLoadFailureReleasesRecipes loads a container whose last
// delta is corrupt into a store sharing its chunk store with another
// tenant: Load must fail and leave the shared store's pinned bytes as
// they were, unpinning the recipes it ingested before the failure and
// the base's.
func TestChunkedLoadFailureReleasesRecipes(t *testing.T) {
	versions := churnedVersions(4, 4, 128<<10)
	plain := New(versions[0])
	for _, v := range versions[1:] {
		if _, err := plain.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := plain.Save()
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 1 // the last delta's CRC
	shared := chunk.NewStore()
	tenant := New(versions[0], WithChunking(shared))
	before := shared.Stats().PinnedBytes
	if _, err := Load(enc, WithChunking(shared)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "delta 3") {
		t.Fatalf("Load of a container with a corrupt last delta: %v, want ErrCorrupt at delta 3", err)
	}
	if after := shared.Stats().PinnedBytes; after != before {
		t.Fatalf("failed Load left %d bytes pinned, %d before it", after, before)
	}
	if got, err := tenant.Version(0); err != nil || !bytes.Equal(got, versions[0]) {
		t.Fatalf("the other tenant's base after the failed Load: %v", err)
	}
}

func TestChunkedStoreSaveLoad(t *testing.T) {
	versions := churnedVersions(3, 4, 128<<10)
	s := New(versions[0], WithChunking(nil))
	for _, v := range versions[1:] {
		if _, err := s.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	// A chunked Load rebuilds the recipe tier from the replayed chain.
	s2, err := Load(enc, WithChunking(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range versions {
		got, err := s2.Version(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("reloaded version %d wrong (%v)", i, err)
		}
	}
	d, err := s2.DeltaBetween(0, len(versions)-1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Apply(versions[0])
	if err != nil || !bytes.Equal(got, versions[len(versions)-1]) {
		t.Fatalf("reloaded recipe delta wrong (%v)", err)
	}
	// The container itself is tier-agnostic: a plain Load reads it too.
	if _, err := Load(enc); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedStoreInPlaceDelta(t *testing.T) {
	versions := churnedVersions(4, 3, 128<<10)
	s := New(versions[0], WithChunking(nil))
	for _, v := range versions[1:] {
		if _, err := s.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	d, _, err := s.InPlaceDeltaTo(0, graph.LocallyMinimum{})
	if err != nil {
		t.Fatal(err)
	}
	head := versions[len(versions)-1]
	buf := make([]byte, d.InPlaceBufLen())
	copy(buf, versions[0])
	if err := d.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(head)], head) {
		t.Fatal("in-place reconstruction from a recipe-sourced delta mismatch")
	}
}

// TestChunkedStoreGoldenContainer pins the container a chunked store
// saves: its SHA-256 and its StorageBytes were taken when a chunked store
// still kept a forward delta per release, so they prove that the recipe
// diffs Save runs on demand reproduce that container byte for byte.
func TestChunkedStoreGoldenContainer(t *testing.T) {
	versions := corpus.RecordChain(11, 256<<10, 6)
	s := buildStore(t, versions, WithChunking(nil))
	enc, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	const wantSum = "b3fceb6eaaf43f9f0517f620b9287724304f9cf5dba08bd613d3b34cc8ef98e8"
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != wantSum {
		t.Errorf("Save SHA-256 = %s, want %s", got, wantSum)
	}
	if n, err := s.StorageBytes(); err != nil || n != 294319 {
		t.Errorf("StorageBytes = %d, %v, want 294319", n, err)
	}

	// Save → Load → Save is a fixed point on a chunked store.
	reloaded, err := Load(enc, WithChunking(nil))
	if err != nil {
		t.Fatal(err)
	}
	again, err := reloaded.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Error("a reloaded chunked store saves a different container")
	}

	// The container is the same for both store modes: a chunked one loads
	// into a plain store, and a plain one into a chunked store.
	plain, err := Load(enc)
	if err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, plain, versions, "chunked container, plain Load")
	plainEnc, err := buildStore(t, versions).Save()
	if err != nil {
		t.Fatal(err)
	}
	fromPlain, err := Load(plainEnc, WithChunking(nil))
	if err != nil {
		t.Fatal(err)
	}
	checkAllVersions(t, fromPlain, versions, "plain container, chunked Load")
}

// TestChunkedStoreHoldsRecipesOnly checks the representation of each
// store mode after New, AppendVersion and Load: a chunked store's releases
// hold a recipe and no delta, and it keeps no base copy; a plain store's
// releases hold a delta and no recipe.
func TestChunkedStoreHoldsRecipesOnly(t *testing.T) {
	versions := churnedVersions(5, 3, 64<<10)
	check := func(s *Store, label string) {
		t.Helper()
		if (s.base == nil) != s.chunked {
			t.Fatalf("%s: chunked %v store holds a %d-byte base copy", label, s.chunked, len(s.base))
		}
		for k, r := range s.releases {
			if s.chunked && (r.d != nil || len(r.recipe.Chunks) == 0) {
				t.Fatalf("%s: chunked release %d holds delta %v, %d chunks", label, k, r.d != nil, len(r.recipe.Chunks))
			}
			if !s.chunked && (r.recipe.Chunks != nil || (k > 0) != (r.d != nil)) {
				t.Fatalf("%s: plain release %d holds delta %v, %d chunks", label, k, r.d != nil, len(r.recipe.Chunks))
			}
		}
	}
	for _, opts := range [][]Option{{WithChunking(nil)}, nil} {
		s := New(versions[0], opts...)
		check(s, "New")
		for _, v := range versions[1:] {
			if _, err := s.AppendVersion(v); err != nil {
				t.Fatal(err)
			}
			check(s, "AppendVersion")
		}
		enc, err := s.Save()
		if err != nil {
			t.Fatal(err)
		}
		for _, loadOpts := range [][]Option{{WithChunking(nil)}, nil} {
			s2, err := Load(enc, loadOpts...)
			if err != nil {
				t.Fatal(err)
			}
			check(s2, "Load")
		}
	}
}

// TestChunkedStoreSaveDuringAppend races Save and StorageBytes against
// AppendVersion and Version on a chunked store. Each container must load
// to a prefix of the history, each size must match some prefix, and the
// final container must be that of a store built without the race.
func TestChunkedStoreSaveDuringAppend(t *testing.T) {
	versions := churnedVersions(6, 6, 64<<10)
	sizes := make([]int64, len(versions))
	for n := 1; n <= len(versions); n++ {
		var err error
		if sizes[n-1], err = buildStore(t, versions[:n], WithChunking(nil)).StorageBytes(); err != nil {
			t.Fatal(err)
		}
	}
	s := New(versions[0], WithChunking(nil))
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, v := range versions[1:] {
			if _, err := s.AppendVersion(v); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			enc, err := s.Save()
			if err != nil {
				errs <- err
				return
			}
			got, err := Load(enc)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < got.NumVersions(); i++ {
				if img, err := got.Version(i); err != nil || !bytes.Equal(img, versions[i]) {
					errs <- fmt.Errorf("a container saved during appends has a wrong version %d (%v)", i, err)
					return
				}
			}
			n, err := s.StorageBytes()
			if err != nil {
				errs <- err
				return
			}
			if !slices.Contains(sizes, n) {
				errs <- fmt.Errorf("StorageBytes = %d during appends, not the size of any prefix %v", n, sizes)
				return
			}
			if s.NumVersions() == len(versions) {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			i := s.NumVersions() - 1
			if img, err := s.Version(i); err != nil || !bytes.Equal(img, versions[i]) {
				errs <- fmt.Errorf("Version(%d) during appends is wrong (%v)", i, err)
				return
			}
			if i == len(versions)-1 {
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	got, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildStore(t, versions, WithChunking(nil)).Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the store saves a different container after the race")
	}
}

// TestChunkedVersionKeepsDeltaCached reads a version between two requests
// for the same composed delta on a chunked store whose cache fits one
// version image. The image is read from chunks and not cached, so it
// cannot evict the delta: the second request hits.
func TestChunkedVersionKeepsDeltaCached(t *testing.T) {
	versions := budgetVersions(5, 36)
	reg := obs.NewRegistry()
	s := buildStore(t, versions, WithChunking(nil), WithCache(1), WithObserver(reg))
	head := len(versions) - 1
	if _, err := s.DeltaBetween(2, head); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Version(2); err != nil || !bytes.Equal(got, versions[2]) {
		t.Fatalf("Version(2) differs (err %v)", err)
	}
	d, err := s.DeltaBetween(2, head)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.Apply(versions[2]); err != nil || !bytes.Equal(got, versions[head]) {
		t.Fatalf("DeltaBetween(2, %d) does not rebuild the head (err %v)", head, err)
	}
	if hits := reg.Snapshot().Counter("ipdelta_store_cache_delta_hits_total"); hits != 1 {
		t.Errorf("delta hits = %d, want 1: reading the version evicted the delta", hits)
	}
}

// TestChunkedStoreNewAllocBytes gates what New allocates on a chunked
// store: the chunk copies of the base and their bookkeeping, and no copy
// of the base beside them.
func TestChunkedStoreNewAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under the race detector")
	}
	base := make([]byte, 4<<20)
	rand.New(rand.NewSource(37)).Read(base)
	best := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		s := New(base, WithChunking(nil))
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(len(base)) * 13 / 10; best > limit {
		t.Fatalf("New allocates %d bytes for a %d-byte base, want at most %d (1.3x)", best, len(base), limit)
	}
}
