package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ipdelta/internal/archive"
	"ipdelta/internal/corpus"
	"ipdelta/internal/graph"
)

// TestStoreOptionMatrix checks that WithCache, WithChunking and
// WithArchive combine coherently, before and after a Save/Load round
// trip: every combination serves the same version bytes, deltas that
// rebuild their targets, and in-place deltas that are safe, rebuild the
// head in place, and encode the same with and without the cache. A
// chunked store has no chain to archive: its Archive reports
// ErrNoArchive and the store serves as before.
func TestStoreOptionMatrix(t *testing.T) {
	versions := corpus.RecordChain(9, 64<<10, 6)
	const segSize, archiveUpTo = 2, 3

	// inPlace[cfg] holds the compact encodings of InPlaceDeltaTo(0..head-1)
	// of a cache-off combination, for its cache-on twin to match.
	inPlace := map[string][][]byte{}
	for _, cache := range []bool{false, true} {
		for _, chunked := range []bool{false, true} {
			for _, archived := range []bool{false, true} {
				for _, reload := range []bool{false, true} {
					cfg := fmt.Sprintf("chunked=%v/archive=%v/reload=%v", chunked, archived, reload)
					name := fmt.Sprintf("cache=%v/%s", cache, cfg)
					t.Run(name, func(t *testing.T) {
						opts := func() []Option {
							var o []Option
							if cache {
								o = append(o, WithCache(1))
							}
							if chunked {
								o = append(o, WithChunking(nil))
							}
							if archived {
								a, _, err := archive.NewWithNodes(3, 2)
								if err != nil {
									t.Fatal(err)
								}
								o = append(o, WithArchive(a), WithArchiveSegment(segSize))
							}
							return o
						}
						s := buildStore(t, versions, opts()...)
						if reload {
							enc, err := s.Save()
							if err != nil {
								t.Fatal(err)
							}
							if s, err = Load(enc, opts()...); err != nil {
								t.Fatal(err)
							}
						}
						switch {
						case archived && chunked:
							if _, err := s.Archive(archiveUpTo); !errors.Is(err, ErrNoArchive) {
								t.Fatalf("Archive(%d) on a chunked store: %v, want ErrNoArchive", archiveUpTo, err)
							}
						case archived:
							if got, err := s.Archive(archiveUpTo); err != nil || got != archiveUpTo {
								t.Fatalf("Archive(%d) = %d, %v", archiveUpTo, got, err)
							}
						}
						encodings := checkStoreServes(t, s, versions)
						if !cache {
							inPlace[cfg] = encodings
							return
						}
						want, ok := inPlace[cfg]
						if !ok {
							t.Fatal("the cache-off twin did not run")
						}
						for i := range encodings {
							if !bytes.Equal(encodings[i], want[i]) {
								t.Errorf("InPlaceDeltaTo(%d) encodes differently with the cache", i)
							}
						}
					})
				}
			}
		}
	}
}

// checkStoreServes checks every version, every forward delta and every
// in-place delta to the head that s serves against versions, and returns
// the compact encodings of InPlaceDeltaTo(i) for each i below the head.
func checkStoreServes(t *testing.T, s *Store, versions [][]byte) [][]byte {
	t.Helper()
	head := len(versions) - 1
	if n := s.NumVersions(); n != len(versions) {
		t.Fatalf("NumVersions = %d, want %d", n, len(versions))
	}
	for i, want := range versions {
		got, err := s.Version(i)
		if err != nil {
			t.Fatalf("Version(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Version(%d) differs", i)
		}
	}
	for i := range versions {
		for j := i; j <= head; j++ {
			d, err := s.DeltaBetween(i, j)
			if err != nil {
				t.Fatalf("DeltaBetween(%d, %d): %v", i, j, err)
			}
			got, err := d.Apply(versions[i])
			if err != nil {
				t.Fatalf("DeltaBetween(%d, %d) does not apply: %v", i, j, err)
			}
			if !bytes.Equal(got, versions[j]) {
				t.Fatalf("DeltaBetween(%d, %d) does not rebuild version %d", i, j, j)
			}
		}
	}
	var encodings [][]byte
	converted := false
	for i := 0; i < head; i++ {
		d, st, err := s.InPlaceDeltaTo(i, graph.LocallyMinimum{})
		if err != nil {
			t.Fatalf("InPlaceDeltaTo(%d): %v", i, err)
		}
		converted = converted || st.ConvertedBytes > 0
		if got := applyInPlace(t, d, versions[i]); !bytes.Equal(got, versions[head]) {
			t.Fatalf("InPlaceDeltaTo(%d) does not rebuild the head in place", i)
		}
		encodings = append(encodings, encodeCompact(t, d))
		back, _, err := s.RollbackDelta(i, graph.LocallyMinimum{})
		if err != nil {
			t.Fatalf("RollbackDelta(%d): %v", i, err)
		}
		if got := applyInPlace(t, back, versions[head]); !bytes.Equal(got, versions[i]) {
			t.Fatalf("RollbackDelta(%d) does not rebuild version %d in place", i, i)
		}
	}
	if !converted {
		t.Fatal("no in-place delta converts a copy, so none reads the reference")
	}
	return encodings
}
