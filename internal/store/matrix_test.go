package store

import (
	"bytes"
	"fmt"
	"testing"

	"ipdelta/internal/archive"
	"ipdelta/internal/corpus"
	"ipdelta/internal/graph"
)

// TestStoreOptionMatrix checks that WithCache and WithChunking combine
// coherently, before and after a Save/Load round trip, and with or
// without an archive export: every combination serves the same version
// bytes, deltas that rebuild their targets, and in-place deltas that are
// safe, rebuild the head in place, and encode the same with and without
// the cache. An exported plain store reads its archived versions back
// from the shards, and the export changes nothing the store serves; a
// chunked store has no chain to export, so its Archive is rejected and
// writes nothing.
func TestStoreOptionMatrix(t *testing.T) {
	versions := corpus.RecordChain(9, 64<<10, 6)

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
						if archived {
							exportAndRead(t, s, chunked, versions)
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

// exportAndRead exports s up to version 3 in segments of 2 and reads
// every archived version back from the shards; a chunked store must
// reject the export and write no stripe.
func exportAndRead(t *testing.T, s *Store, chunked bool, versions [][]byte) {
	t.Helper()
	const segSize, upTo = 2, 3
	a, _, err := archive.NewWithNodes(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Archive(a, upTo, segSize)
	if chunked {
		if err == nil || len(a.Stripes()) != 0 {
			t.Fatalf("Archive on a chunked store = %d, %v with %d stripes, want an error and none", got, err, len(a.Stripes()))
		}
		return
	}
	if err != nil || got != upTo {
		t.Fatalf("Archive(%d) = %d, %v", upTo, got, err)
	}
	for i := 0; i <= upTo; i++ {
		img, _, err := ReadArchived(a, segSize, i)
		if err != nil {
			t.Fatalf("ReadArchived(%d): %v", i, err)
		}
		if !bytes.Equal(img, versions[i]) {
			t.Fatalf("ReadArchived(%d) differs", i)
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
