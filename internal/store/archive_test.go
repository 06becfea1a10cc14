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

// buildTierStore creates a plain store of count small, related versions
// and an empty erasure-coded archive of k data and m parity shards.
func buildTierStore(t testing.TB, k, m, count int, opts ...Option) (*Store, *archive.Archive, []*archive.Node, [][]byte) {
	t.Helper()
	a, nodes, err := archive.NewWithNodes(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(uint64(count)*31+uint64(k)*7+uint64(m), 9))
	base := make([]byte, 512+rng.IntN(512))
	for i := range base {
		base[i] = byte(rng.IntN(256))
	}
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
	return s, a, nodes, versions
}

// checkArchived reads every version up to upTo back from a with
// ReadArchived and checks its bytes and its reverse replay count: a read
// of version i replays down from the newest version of i's segment.
func checkArchived(t *testing.T, a *archive.Archive, segSize, upTo int, versions [][]byte, label string) {
	t.Helper()
	for i := 0; i <= upTo; i++ {
		got, replays, err := ReadArchived(a, segSize, i)
		if err != nil {
			t.Fatalf("%s: ReadArchived(%d): %v", label, i, err)
		}
		if !bytes.Equal(got, versions[i]) {
			t.Fatalf("%s: ReadArchived(%d) differs", label, i)
		}
		if want := (i/segSize+1)*segSize - 1 - i; replays != want {
			t.Fatalf("%s: ReadArchived(%d) applied %d reverse deltas, want %d", label, i, replays, want)
		}
	}
}

func TestStoreArchiveTierRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s, a, _, versions := buildTierStore(t, 3, 2, 20, WithObserver(reg))
	upTo, err := s.Archive(a, len(versions)-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 19 {
		t.Fatalf("archived up to %d, want 19", upTo)
	}
	if got := len(a.Stripes()); got != 5 {
		t.Fatalf("%d stripes, want 5", got)
	}
	checkArchived(t, a, 4, upTo, versions, "healthy archive")
	// The export leaves the store as it was.
	checkAllVersions(t, s, versions, "exported store")
	if got := reg.Snapshot().Counter("ipdelta_store_archive_segments_total"); got != 5 {
		t.Errorf("segments counter = %d", got)
	}
}

func TestStoreArchiveRoundsDownToSegments(t *testing.T) {
	s, a, _, versions := buildTierStore(t, 2, 1, 11)
	upTo, err := s.Archive(a, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if upTo != 7 {
		t.Fatalf("archived up to %d, want 7 (two full segments of 4)", upTo)
	}
	checkArchived(t, a, 4, upTo, versions, "partial archive")
	if _, _, err := ReadArchived(a, 4, 8); err == nil {
		t.Fatal("ReadArchived(8) succeeded beyond the boundary")
	}
	// Not even one full segment: nothing is striped.
	s2, a2, _, _ := buildTierStore(t, 2, 1, 3)
	if upTo, err := s2.Archive(a2, 2, 4); err != nil || upTo != -1 {
		t.Fatalf("short chain archived to %d (%v), want -1", upTo, err)
	}
	if got := len(a2.Stripes()); got != 0 {
		t.Fatalf("short chain wrote %d stripes", got)
	}
}

// TestStoreArchiveErrors: a chunked store, a non-positive segment size and
// an out-of-range boundary are rejected before any stripe is written.
func TestStoreArchiveErrors(t *testing.T) {
	st, a, _, _ := buildTierStore(t, 2, 1, 5)
	chunked := New([]byte("recipes only"), WithChunking(nil))
	for _, tc := range []struct {
		name      string
		s         *Store
		upTo, seg int
		noVersion bool
	}{
		{"chunked", chunked, 0, 1, false},
		{"segment 0", st, 4, 0, false},
		{"segment -4", st, 4, -4, false},
		{"upTo beyond head", st, 5, 2, true},
		{"upTo negative", st, -1, 2, true},
	} {
		upTo, err := tc.s.Archive(a, tc.upTo, tc.seg)
		if err == nil || upTo != -1 {
			t.Errorf("%s: Archive = %d, %v, want -1 and an error", tc.name, upTo, err)
		}
		if tc.noVersion != errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("%s: errors.Is(%v, ErrNoSuchVersion) = %v", tc.name, err, !tc.noVersion)
		}
		if got := len(a.Stripes()); got != 0 {
			t.Fatalf("%s: rejected export wrote %d stripes", tc.name, got)
		}
	}
	if _, _, err := ReadArchived(a, 0, 0); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("ReadArchived at segment size 0: %v, want ErrNoSuchVersion", err)
	}
}

// TestStoreArchiveDegradedGrid is the store-level acceptance property:
// across the (k, m) grid with k+m <= 16, with up to m seeded node kills
// the archive still serves every archived version byte-for-byte.
func TestStoreArchiveDegradedGrid(t *testing.T) {
	rng := rand.New(rand.NewPCG(20260808, 10))
	for k := 1; k <= 15; k++ {
		for m := 1; k+m <= 16; m++ {
			s, a, nodes, versions := buildTierStore(t, k, m, 6)
			if _, err := s.Archive(a, 5, 3); err != nil {
				t.Fatalf("k=%d m=%d: %v", k, m, err)
			}
			f := 1 + rng.IntN(m)
			for _, j := range rng.Perm(k + m)[:f] {
				nodes[j].Kill()
			}
			checkArchived(t, a, 3, 5, versions, fmt.Sprintf("k=%d m=%d f=%d", k, m, f))
		}
	}
}

// TestStoreArchiveBeyondParity: with m+1 nodes dead the archive cannot
// serve, and the store, which never reads it, still serves every version.
func TestStoreArchiveBeyondParity(t *testing.T) {
	s, a, nodes, versions := buildTierStore(t, 3, 2, 6)
	if _, err := s.Archive(a, 5, 3); err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 2, 4} { // m+1 = 3 dead nodes
		nodes[j].Kill()
	}
	for i := range versions {
		if _, _, err := ReadArchived(a, 3, i); !errors.Is(err, archive.ErrUnrecoverable) {
			t.Fatalf("ReadArchived(%d): %v, want archive.ErrUnrecoverable", i, err)
		}
	}
	checkAllVersions(t, s, versions, "store beside a lost archive")
}

func TestStoreArchiveScrubRepairEndToEnd(t *testing.T) {
	seed := uint64(20260808)
	rng := rand.New(rand.NewPCG(seed, 11))
	s, a, nodes, versions := buildTierStore(t, 4, 3, 12)
	if _, err := s.Archive(a, 11, 4); err != nil {
		t.Fatal(err)
	}
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
	checkArchived(t, a, 4, 11, versions, "post-repair")
}

func TestArchiveSegmentDecodeHostile(t *testing.T) {
	s, a, _, _ := buildTierStore(t, 2, 1, 4)
	if _, err := s.Archive(a, 3, 4); err != nil {
		t.Fatal(err)
	}
	blob, err := a.Get(0)
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
