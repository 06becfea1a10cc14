package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"ipdelta/internal/archive"
	"ipdelta/internal/obs"
)

// buildTierStore creates a store over an erasure-coded archive tier with
// count small, related versions.
func buildTierStore(t testing.TB, k, m, count, segSize int, opts ...Option) (*Store, []*archive.Node, [][]byte) {
	t.Helper()
	return buildSizedTierStore(t, k, m, count, segSize, 512, opts...)
}

// buildSizedTierStore is buildTierStore with a base of size to size+511
// bytes.
func buildSizedTierStore(t testing.TB, k, m, count, segSize, size int, opts ...Option) (*Store, []*archive.Node, [][]byte) {
	t.Helper()
	a, nodes, err := archive.NewWithNodes(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(uint64(count)*31+uint64(k)*7+uint64(m), 9))
	base := make([]byte, size+rng.IntN(512))
	for i := range base {
		base[i] = byte(rng.IntN(256))
	}
	opts = append([]Option{WithArchive(a), WithArchiveSegment(segSize)}, opts...)
	s := New(base, opts...)
	versions := [][]byte{append([]byte(nil), base...)}
	cur := base
	for v := 1; v < count; v++ {
		next := append([]byte(nil), cur...)
		for e := 0; e < 8; e++ {
			next[rng.IntN(len(next))] ^= byte(1 + rng.IntN(255))
		}
		if rng.IntN(3) == 0 {
			extra := make([]byte, rng.IntN(64))
			for i := range extra {
				extra[i] = byte(rng.IntN(256))
			}
			next = append(next, extra...)
		}
		if _, err := s.AppendVersion(next); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
		cur = next
	}
	return s, nodes, versions
}

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

func TestStoreArchiveTierRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, versions := buildTierStore(t, 3, 2, 20, 4, WithObserver(reg))
	upTo, err := s.Archive(len(versions) - 1)
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 19 {
		t.Fatalf("archived up to %d, want 19", upTo)
	}
	if got := s.ArchivedUpTo(); got != upTo {
		t.Fatalf("ArchivedUpTo = %d", got)
	}
	if got := len(s.ArchiveTier().Stripes()); got != 5 {
		t.Fatalf("%d stripes, want 5", got)
	}
	checkAllVersions(t, s, versions, "healthy tier")
	snap := reg.Snapshot()
	if snap.Counter("ipdelta_store_archive_reads_total") == 0 {
		t.Error("archived reads did not go through the tier")
	}
	if snap.Counter("ipdelta_store_archive_segments_total") != 5 {
		t.Errorf("segments counter = %d", snap.Counter("ipdelta_store_archive_segments_total"))
	}
	if snap.Counter("ipdelta_store_archive_fallbacks_total") != 0 {
		t.Error("healthy tier fell back to the chain")
	}
}

func TestStoreArchiveRoundsDownToSegments(t *testing.T) {
	s, _, versions := buildTierStore(t, 2, 1, 11, 4)
	upTo, err := s.Archive(10)
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 7 {
		t.Fatalf("archived up to %d, want 7 (two full segments of 4)", upTo)
	}
	checkAllVersions(t, s, versions, "partial archive")
	// Not even one full segment: boundary stays.
	s2, _, _ := buildTierStore(t, 2, 1, 3, 4)
	if upTo, err := s2.Archive(2); err != nil || upTo != -1 {
		t.Fatalf("short chain archived to %d (%v), want -1", upTo, err)
	}
}

func TestStoreArchiveErrors(t *testing.T) {
	s := New([]byte("no tier"))
	if _, err := s.Archive(0); !errors.Is(err, ErrNoArchive) {
		t.Fatalf("want ErrNoArchive, got %v", err)
	}
	st, _, _ := buildTierStore(t, 2, 1, 5, 2)
	if _, err := st.Archive(5); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("want ErrNoSuchVersion, got %v", err)
	}
	if _, err := st.Archive(-1); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("want ErrNoSuchVersion, got %v", err)
	}
}

func TestStoreArchiveIncremental(t *testing.T) {
	s, _, versions := buildTierStore(t, 2, 2, 8, 4)
	if _, err := s.Archive(7); err != nil {
		t.Fatal(err)
	}
	// Growing the history archives only the new segments.
	cur := versions[len(versions)-1]
	for v := 0; v < 8; v++ {
		next := append([]byte(nil), cur...)
		next[v] ^= 0xFF
		if _, err := s.AppendVersion(next); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
		cur = next
	}
	upTo, err := s.Archive(15)
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 15 {
		t.Fatalf("archived up to %d, want 15", upTo)
	}
	if got := len(s.ArchiveTier().Stripes()); got != 4 {
		t.Fatalf("%d stripes, want 4", got)
	}
	checkAllVersions(t, s, versions, "incremental")
	// Re-archiving the same boundary is a no-op.
	if upTo, err := s.Archive(15); err != nil || upTo != 15 {
		t.Fatalf("idempotent archive: %d, %v", upTo, err)
	}
}

// TestStoreArchiveDegradedGrid is the store-level acceptance property:
// across the (k, m) grid with k+m <= 16, with up to m seeded node kills
// the archival tier still serves every archived version byte-for-byte.
func TestStoreArchiveDegradedGrid(t *testing.T) {
	rng := rand.New(rand.NewPCG(20260808, 10))
	for k := 1; k <= 15; k++ {
		for m := 1; k+m <= 16; m++ {
			reg := obs.NewRegistry()
			s, nodes, versions := buildTierStore(t, k, m, 6, 3, WithObserver(reg))
			if _, err := s.Archive(5); err != nil {
				t.Fatalf("k=%d m=%d: %v", k, m, err)
			}
			f := 1 + rng.IntN(m)
			for _, j := range rng.Perm(k + m)[:f] {
				nodes[j].Kill()
			}
			checkAllVersions(t, s, versions, fmt.Sprintf("k=%d m=%d f=%d", k, m, f))
			if reg.Snapshot().Counter("ipdelta_store_archive_fallbacks_total") != 0 {
				t.Fatalf("k=%d m=%d f=%d: degraded read fell back to the chain", k, m, f)
			}
		}
	}
}

func TestStoreArchiveFallbackBeyondParity(t *testing.T) {
	reg := obs.NewRegistry()
	s, nodes, versions := buildTierStore(t, 3, 2, 6, 3, WithObserver(reg))
	if _, err := s.Archive(5); err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 2, 4} { // m+1 = 3 dead nodes
		nodes[j].Kill()
	}
	// The tier is unrecoverable, but the store retains the chain: reads
	// stay correct and the fallback is counted.
	checkAllVersions(t, s, versions, "fallback")
	if reg.Snapshot().Counter("ipdelta_store_archive_fallbacks_total") == 0 {
		t.Error("fallback not counted")
	}
}

func TestStoreArchiveScrubRepairEndToEnd(t *testing.T) {
	seed := uint64(20260808)
	rng := rand.New(rand.NewPCG(seed, 11))
	s, nodes, versions := buildTierStore(t, 4, 3, 12, 4)
	if _, err := s.Archive(11); err != nil {
		t.Fatal(err)
	}
	a := s.ArchiveTier()
	// Silent damage on three distinct nodes, then one node replaced.
	nodes[1].CorruptShard(rng)
	nodes[2].TruncateShard(rng)
	nodes[6].Wipe()
	rep := a.Scrub()
	if rep.Clean() || rep.Unrecoverable != 0 {
		t.Fatalf("seed %d: scrub = %v", seed, rep)
	}
	fix := a.Repair()
	if fix.Failed != 0 || fix.Unrecoverable != 0 || fix.Repaired != rep.Missing+rep.Corrupt {
		t.Fatalf("seed %d: repair = %v", seed, fix)
	}
	if rep := a.Scrub(); !rep.Clean() {
		t.Fatalf("seed %d: post-repair scrub = %v", seed, rep)
	}
	checkAllVersions(t, s, versions, "post-repair")
}

func TestStoreArchiveWithCache(t *testing.T) {
	reg := obs.NewRegistry()
	s, nodes, versions := buildTierStore(t, 3, 2, 8, 4, WithCache(16), WithObserver(reg))
	if _, err := s.Archive(7); err != nil {
		t.Fatal(err)
	}
	nodes[0].Kill() // degraded reconstructs populate the cache too
	checkAllVersions(t, s, versions, "first pass")
	firstReads := reg.Snapshot().Counter("ipdelta_store_archive_reads_total")
	checkAllVersions(t, s, versions, "cached pass")
	snap := reg.Snapshot()
	if got := snap.Counter("ipdelta_store_archive_reads_total"); got != firstReads {
		t.Errorf("cached pass hit the archive again: %d -> %d reads", firstReads, got)
	}
	if snap.Counter("ipdelta_store_cache_version_hits_total") == 0 {
		t.Error("no cache hits recorded")
	}
}

// TestStoreArchiveConcurrentReaders: degraded tier reads race cache
// evictions. Twelve versions of about 160 KiB overflow the 1 MiB budget.
func TestStoreArchiveConcurrentReaders(t *testing.T) {
	reg := obs.NewRegistry()
	s, nodes, versions := buildSizedTierStore(t, 3, 2, 12, 4, 160<<10, WithCache(1), WithObserver(reg))
	if _, err := s.Archive(11); err != nil {
		t.Fatal(err)
	}
	nodes[4].Kill()
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			rng := rand.New(rand.NewPCG(uint64(w), 12))
			for n := 0; n < 40; n++ {
				i := rng.IntN(len(versions))
				got, err := s.Version(i)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, versions[i]) {
					done <- fmt.Errorf("worker %d: version %d differs", w, i)
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if ev := reg.Snapshot().Counter("ipdelta_store_cache_evictions_total"); ev == 0 {
		t.Fatal("no evictions: the budget held every version")
	}
}

func TestArchiveSegmentDecodeHostile(t *testing.T) {
	s, _, _ := buildTierStore(t, 2, 1, 4, 4)
	if _, err := s.Archive(3); err != nil {
		t.Fatal(err)
	}
	blob, err := s.ArchiveTier().Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeArchiveSegment(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(blob); cut += 1 + len(blob)/41 {
			if _, err := DecodeArchiveSegment(blob[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for pos := 0; pos < len(blob); pos += 1 + len(blob)/53 {
			bad := append([]byte(nil), blob...)
			bad[pos] ^= 0x04
			g, err := DecodeArchiveSegment(bad)
			if err != nil {
				continue // rejected at decode: good
			}
			// A flip that decodes must be caught by a version CRC.
			caught := false
			for i := g.Lo; i <= g.Hi; i++ {
				if _, err := g.Version(i); err != nil {
					caught = true
					break
				}
			}
			if !caught {
				t.Fatalf("bit flip at %d served every version silently", pos)
			}
		}
	})
	t.Run("hostile header", func(t *testing.T) {
		// lo=0, hi huge: must error, not allocate per claimed version.
		hostile := []byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
		if _, err := DecodeArchiveSegment(hostile); err == nil {
			t.Fatal("hostile header accepted")
		}
	})
}
