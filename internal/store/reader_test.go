package store

import (
	"bytes"
	"testing"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
)

// buildStore appends versions[1:] to a store over versions[0].
func buildStore(t testing.TB, versions [][]byte, opts ...Option) *Store {
	t.Helper()
	s := New(versions[0], opts...)
	for _, v := range versions[1:] {
		if _, err := s.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// encodeCompact returns d's compact wire encoding.
func encodeCompact(t testing.TB, d *delta.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatCompact); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyInPlace checks that d is in-place safe and returns what it builds
// in the space of ref.
func applyInPlace(t testing.TB, d *delta.Delta, ref []byte) []byte {
	t.Helper()
	if err := d.CheckInPlace(); err != nil {
		t.Fatalf("delta is not in-place safe: %v", err)
	}
	buf := make([]byte, d.InPlaceBufLen())
	copy(buf, ref)
	if err := d.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	return buf[:d.VersionLen]
}

// TestInPlaceDeltaToSkipsUnreadImage is the regression test for the
// image and the composed delta evicting each other under a budget that
// one image nearly fills. Conversion reads the reference only for the
// copies it converts, so a chunked store never materializes version 0:
// the delta is composed once and every repeat hits it.
func TestInPlaceDeltaToSkipsUnreadImage(t *testing.T) {
	reg := obs.NewRegistry()
	versions := churnedVersions(7, 2, 1040000)
	s := buildStore(t, versions, WithChunking(nil), WithCache(1), WithObserver(reg))
	var first []byte
	for k := 0; k < 3; k++ {
		d, _, err := s.InPlaceDeltaTo(0, graph.LocallyMinimum{})
		if err != nil {
			t.Fatal(err)
		}
		if got := applyInPlace(t, d, versions[0]); !bytes.Equal(got, versions[1]) {
			t.Fatalf("call %d: in-place delta does not rebuild the head", k)
		}
		enc := encodeCompact(t, d)
		if first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("call %d: encoding differs from the first call", k)
		}
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"ipdelta_store_cache_delta_misses_total":   1,
		"ipdelta_store_cache_delta_hits_total":     2,
		"ipdelta_store_cache_version_misses_total": 0,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// recordVersions is a records chain whose releases move runs of records,
// so a delta from the base to the head has CRWI cycles and its
// conversion turns copies into adds.
func recordVersions() [][]byte { return corpus.RecordChain(5, 192<<10, 4) }

// TestChunkedInPlaceDeltaReadsByRange: on a pair whose conversion really
// converts copies, converting against the recipe reader gives the same
// bytes as converting against the materialized image.
func TestChunkedInPlaceDeltaReadsByRange(t *testing.T) {
	versions := recordVersions()
	head := len(versions) - 1
	s := buildStore(t, versions, WithChunking(nil))
	for i := 0; i < head; i++ {
		got, st, err := s.InPlaceDeltaTo(i, graph.LocallyMinimum{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && st.ConvertedBytes == 0 {
			t.Fatal("the base-to-head conversion converts no copy, so it reads no reference range")
		}
		raw, err := s.DeltaBetween(i, head)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := inplace.Convert(raw, versions[i], inplace.WithPolicy(graph.LocallyMinimum{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeCompact(t, got), encodeCompact(t, want)) {
			t.Fatalf("InPlaceDeltaTo(%d) differs from converting against the materialized image", i)
		}
		if img := applyInPlace(t, got, versions[i]); !bytes.Equal(img, versions[head]) {
			t.Fatalf("InPlaceDeltaTo(%d) does not rebuild the head", i)
		}
	}
}

// TestRollbackDeltaReadsHeadByRange: a chunked and a plain store each
// convert the inverted delta against a head read by range, with the same
// bytes as converting it against the materialized head, and both
// rollbacks rebuild the old version in place.
func TestRollbackDeltaReadsHeadByRange(t *testing.T) {
	versions := recordVersions()
	head := len(versions) - 1
	for _, tc := range []struct {
		name string
		opts []Option
	}{{"plain", nil}, {"chunked", []Option{WithChunking(nil)}}} {
		t.Run(tc.name, func(t *testing.T) {
			s := buildStore(t, versions, tc.opts...)
			converted := false
			for i := 0; i < head; i++ {
				got, st, err := s.RollbackDelta(i, graph.LocallyMinimum{})
				if err != nil {
					t.Fatal(err)
				}
				converted = converted || st.ConvertedBytes > 0
				forward, err := s.DeltaBetween(i, head)
				if err != nil {
					t.Fatal(err)
				}
				backward, err := delta.Invert(forward, versions[i])
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := inplace.Convert(backward, versions[head], inplace.WithPolicy(graph.LocallyMinimum{}))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeCompact(t, got), encodeCompact(t, want)) {
					t.Fatalf("RollbackDelta(%d) differs from converting against the materialized head", i)
				}
				if img := applyInPlace(t, got, versions[head]); !bytes.Equal(img, versions[i]) {
					t.Fatalf("RollbackDelta(%d) does not rebuild version %d", i, i)
				}
			}
			if !converted {
				t.Fatal("no rollback converts a copy, so none reads a head range")
			}
		})
	}
}
