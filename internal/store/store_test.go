package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/corpus"
	"ipdelta/internal/graph"
)

// buildChainStore creates a store with n related versions and returns the
// store plus the raw versions for comparison.
func buildChainStore(t testing.TB, n int, seed int64) (*Store, [][]byte) {
	t.Helper()
	versions := chainVersions(n, 24<<10, seed)
	s := New(versions[0])
	for _, v := range versions[1:] {
		if _, err := s.AppendVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	return s, versions
}

// chainVersions returns n related releases of size bytes.
func chainVersions(n, size int, seed int64) [][]byte {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: size, ChangeRate: 0.06, Seed: seed})
	versions := [][]byte{pair.Ref}
	cur := pair.Ref
	for k := 1; k < n; k++ {
		next := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: len(cur), ChangeRate: 0.06, Seed: seed + int64(k)})
		// Derive the next release from the current one: splice some of the
		// generated content in so versions stay related.
		v := append([]byte(nil), cur...)
		splice := len(v) / 5
		copy(v[len(v)-splice:], next.Version[:splice])
		versions = append(versions, v)
		cur = v
	}
	return versions
}

func TestStoreVersions(t *testing.T) {
	s, versions := buildChainStore(t, 5, 1)
	if s.NumVersions() != 5 {
		t.Fatalf("NumVersions = %d", s.NumVersions())
	}
	for k, want := range versions {
		got, err := s.Version(k)
		if err != nil {
			t.Fatalf("Version(%d): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Version(%d) differs", k)
		}
	}
	if _, err := s.Version(5); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("error = %v", err)
	}
	if _, err := s.Version(-1); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("error = %v", err)
	}
}

func TestStoreLookup(t *testing.T) {
	s, _ := buildChainStore(t, 3, 2)
	crc, length, err := s.CRC(1)
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := s.Lookup(crc, length)
	if !ok || idx != 1 {
		t.Fatalf("Lookup = %d, %v", idx, ok)
	}
	if _, ok := s.Lookup(0xFFFFFFFF, 1); ok {
		t.Fatal("bogus lookup succeeded")
	}
	if _, _, err := s.CRC(9); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("error = %v", err)
	}
}

func TestStoreDeltaBetween(t *testing.T) {
	s, versions := buildChainStore(t, 5, 3)
	// Every (i, j) pair must compose into a working direct delta.
	for i := 0; i < 5; i++ {
		for j := i; j < 5; j++ {
			d, err := s.DeltaBetween(i, j)
			if err != nil {
				t.Fatalf("DeltaBetween(%d,%d): %v", i, j, err)
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("DeltaBetween(%d,%d) invalid: %v", i, j, err)
			}
			got, err := d.Apply(versions[i])
			if err != nil {
				t.Fatalf("apply %d->%d: %v", i, j, err)
			}
			if !bytes.Equal(got, versions[j]) {
				t.Fatalf("composition %d->%d materializes the wrong version", i, j)
			}
		}
	}
	if _, err := s.DeltaBetween(3, 1); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("error = %v", err)
	}
}

func TestStoreInPlaceDeltaTo(t *testing.T) {
	s, versions := buildChainStore(t, 4, 4)
	for i := 0; i < 4; i++ {
		d, st, err := s.InPlaceDeltaTo(i, graph.LocallyMinimum{})
		if err != nil {
			t.Fatalf("InPlaceDeltaTo(%d): %v", i, err)
		}
		if st == nil {
			t.Fatal("nil stats")
		}
		if err := d.CheckInPlace(); err != nil {
			t.Fatalf("InPlaceDeltaTo(%d) not in-place safe: %v", i, err)
		}
		buf := make([]byte, d.InPlaceBufLen())
		copy(buf, versions[i])
		if err := d.ApplyInPlace(buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:d.VersionLen], versions[3]) {
			t.Fatalf("in-place from %d produced the wrong head", i)
		}
	}
}

func TestStoreSpaceSavings(t *testing.T) {
	s, _ := buildChainStore(t, 6, 5)
	storage, err := s.StorageBytes()
	if err != nil {
		t.Fatal(err)
	}
	full := s.FullBytes()
	if storage >= full/2 {
		t.Fatalf("delta chain uses %d bytes vs %d full — savings too small", storage, full)
	}
}

func TestStoreSaveLoad(t *testing.T) {
	s, versions := buildChainStore(t, 4, 6)
	blob, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVersions() != 4 {
		t.Fatalf("loaded %d versions", loaded.NumVersions())
	}
	for k, want := range versions {
		got, err := loaded.Version(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("loaded Version(%d) differs (%v)", k, err)
		}
	}
	// Identities must survive the round trip.
	for k := range versions {
		a, al, _ := s.CRC(k)
		b, bl, _ := loaded.CRC(k)
		if a != b || al != bl {
			t.Fatalf("identity of version %d changed", k)
		}
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	s, _ := buildChainStore(t, 3, 7)
	blob, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] = 'X'
		if _, err := Load(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(blob); cut += len(blob) / 17 {
			if _, err := Load(blob[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("flipped delta byte", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-10] ^= 0x20
		if _, err := Load(bad); err == nil {
			t.Fatal("corrupted delta accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Load(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error = %v", err)
		}
	})
}

func TestEmptyBaseStore(t *testing.T) {
	s := New(nil)
	if s.NumVersions() != 1 {
		t.Fatal("empty store must hold the empty base version")
	}
	idx, err := s.AppendVersion([]byte("first real content"))
	if err != nil || idx != 1 {
		t.Fatalf("append: %d, %v", idx, err)
	}
	got, err := s.Version(1)
	if err != nil || string(got) != "first real content" {
		t.Fatalf("%q, %v", got, err)
	}
	d, err := s.DeltaBetween(0, 0)
	if err != nil || len(d.Commands) != 0 {
		t.Fatalf("identity delta on empty base: %v, %v", d, err)
	}
}

func TestQuickStoreRandomChains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, rng.Intn(4096)+64)
		rng.Read(base)
		s := New(base)
		versions := [][]byte{base}
		cur := base
		for k := 0; k < rng.Intn(4)+1; k++ {
			v := append([]byte(nil), cur...)
			for e := 0; e < rng.Intn(8); e++ {
				v[rng.Intn(len(v))] ^= byte(rng.Intn(255) + 1)
			}
			if rng.Intn(2) == 0 {
				extra := make([]byte, rng.Intn(256))
				rng.Read(extra)
				v = append(v, extra...)
			}
			if _, err := s.AppendVersion(v); err != nil {
				return false
			}
			versions = append(versions, v)
			cur = v
		}
		// Save/load and spot-check a random pair.
		blob, err := s.Save()
		if err != nil {
			return false
		}
		loaded, err := Load(blob)
		if err != nil {
			return false
		}
		i := rng.Intn(len(versions))
		j := i + rng.Intn(len(versions)-i)
		d, err := loaded.DeltaBetween(i, j)
		if err != nil {
			return false
		}
		got, err := d.Apply(versions[i])
		if err != nil {
			return false
		}
		return bytes.Equal(got, versions[j])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRollbackDelta(t *testing.T) {
	s, versions := buildChainStore(t, 4, 8)
	head := versions[len(versions)-1]
	for i := 0; i < len(versions)-1; i++ {
		d, st, err := s.RollbackDelta(i, graph.LocallyMinimum{})
		if err != nil {
			t.Fatalf("RollbackDelta(%d): %v", i, err)
		}
		if st == nil {
			t.Fatal("nil stats")
		}
		if err := d.CheckInPlace(); err != nil {
			t.Fatalf("rollback delta not in-place safe: %v", err)
		}
		buf := make([]byte, d.InPlaceBufLen())
		copy(buf, head)
		if err := d.ApplyInPlace(buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:d.VersionLen], versions[i]) {
			t.Fatalf("rollback to %d produced the wrong image", i)
		}
	}
	if _, _, err := s.RollbackDelta(9, graph.LocallyMinimum{}); err == nil {
		t.Fatal("out-of-range rollback accepted")
	}
}
