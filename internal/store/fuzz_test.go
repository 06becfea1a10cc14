package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// smallContainer builds a valid 3-version container for hostile-input
// tests.
func smallContainer(t testing.TB) []byte {
	t.Helper()
	s := New([]byte("the quick brown fox jumps over the lazy dog 0123456789"))
	if _, err := s.AppendVersion([]byte("the quick brown fox vaults over the lazy dog 0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendVersion([]byte("the quick brown fox vaults over the lazy dog 9876543210 with a tail")); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestLoadHostileContainers mirrors the netupdate hostile length-prefix
// suite: every corruption of the container must yield ErrCorrupt — never
// a panic, a silently wrong store, or a giant allocation.
func TestLoadHostileContainers(t *testing.T) {
	valid := smallContainer(t)
	// Offsets inside the v2 layout: magic(4) + version(1) + count + baseLen.
	const headerEnd = 4 + 1

	putUvarint := func(v uint64) []byte {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], v)
		return tmp[:n]
	}

	cases := []struct {
		name string
		data func() []byte
	}{
		{"empty", func() []byte { return nil }},
		{"magic only", func() []byte { return valid[:4] }},
		{"bad magic", func() []byte {
			b := append([]byte(nil), valid...)
			b[2] ^= 0xFF
			return b
		}},
		{"unknown format version", func() []byte {
			b := append([]byte(nil), valid...)
			b[4] = 9
			return b
		}},
		{"legacy format without version byte", func() []byte {
			// A v1-shaped container: magic then count directly.
			b := append([]byte(nil), valid[:4]...)
			return append(b, valid[headerEnd:]...)
		}},
		{"zero count", func() []byte {
			b := append([]byte(nil), valid[:headerEnd]...)
			b = append(b, putUvarint(0)...)
			return append(b, valid[headerEnd+1:]...)
		}},
		{"hostile count", func() []byte {
			// Claims 2^40 releases in a tiny container.
			b := append([]byte(nil), valid[:headerEnd]...)
			b = append(b, putUvarint(1<<40)...)
			return append(b, 0x00)
		}},
		{"hostile base length", func() []byte {
			// 20-ish bytes demanding a 4 GiB base image: must error
			// before allocating (the satellite fix for store.Load).
			b := append([]byte(nil), valid[:headerEnd]...)
			b = append(b, putUvarint(3)...)
			b = append(b, putUvarint(4<<30)...)
			return append(b, 0xAA, 0xBB, 0xCC)
		}},
		{"flipped base byte", func() []byte {
			// Inside the base image: replay still works command-for-
			// command, but the stored CRC must catch it.
			b := append([]byte(nil), valid...)
			b[headerEnd+3] ^= 0x10
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Load(tc.data()); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error = %v, want ErrCorrupt", err)
			}
		})
	}
	t.Run("every truncation", func(t *testing.T) {
		for cut := 0; cut < len(valid); cut++ {
			if _, err := Load(valid[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("every bit flip is rejected or immaterial", func(t *testing.T) {
		want := mustVersions(t, valid)
		for pos := 0; pos < len(valid); pos++ {
			bad := append([]byte(nil), valid...)
			bad[pos] ^= 0x08
			if _, err := Load(bad); err != nil {
				continue
			}
			// The rare flip that still loads (e.g. an equivalent copy
			// source in a delta) must reproduce identical content.
			got := mustVersions(t, bad)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("flip at %d silently changed version %d", pos, i)
				}
			}
		}
	})
}

// mustVersions loads a container and materializes every version.
func mustVersions(t testing.TB, blob []byte) [][]byte {
	t.Helper()
	s, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, s.NumVersions())
	for i := range out {
		img, err := s.Version(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = img
	}
	return out
}

// FuzzStoreLoad feeds hostile containers to Load: it must never panic,
// over-allocate against a small input, or accept a container whose
// replayed versions contradict the stored identities. Whatever a plain
// Load accepts, a chunked Load must accept too and hold the same versions.
func FuzzStoreLoad(f *testing.F) {
	valid := smallContainer(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:5])
	f.Add([]byte("IPST"))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data)
		if err != nil {
			return
		}
		versions := checkLoadedIdentities(t, s)
		cs, err := Load(data, WithChunking(nil))
		if err != nil {
			t.Fatalf("a container a plain Load accepts fails a chunked Load: %v", err)
		}
		for i, img := range checkLoadedIdentities(t, cs) {
			if !bytes.Equal(img, versions[i]) {
				t.Fatalf("chunked Load holds a different version %d", i)
			}
		}
		head := len(versions) - 1
		d, err := cs.DeltaBetween(0, head)
		if err != nil {
			t.Fatalf("chunked DeltaBetween(0, %d): %v", head, err)
		}
		if got, err := d.Apply(versions[0]); err != nil || !bytes.Equal(got, versions[head]) {
			t.Fatalf("chunked DeltaBetween(0, %d) does not rebuild the head (%v)", head, err)
		}
	})
}

// checkLoadedIdentities checks that a loaded store is internally
// consistent — every version materializes and matches its recorded
// identity — and returns the versions.
func checkLoadedIdentities(t *testing.T, s *Store) [][]byte {
	t.Helper()
	versions := make([][]byte, s.NumVersions())
	for i := range versions {
		img, err := s.Version(i)
		if err != nil {
			t.Fatalf("loaded container cannot materialize version %d: %v", i, err)
		}
		crc, length, err := s.CRC(i)
		if err != nil || int64(len(img)) != length || crc32.ChecksumIEEE(img) != crc {
			t.Fatalf("version %d contradicts its recorded identity (%v)", i, err)
		}
		versions[i] = img
	}
	return versions
}
