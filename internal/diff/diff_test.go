package diff

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/delta"
)

var algorithms = []Algorithm{NewLinear(), NewGreedy(), Null{}}

// roundTrip diffs and re-applies, failing the test on any mismatch.
func roundTrip(t *testing.T, a Algorithm, ref, version []byte) *delta.Delta {
	t.Helper()
	d, err := a.Diff(ref, version)
	if err != nil {
		t.Fatalf("%s: Diff: %v", a.Name(), err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("%s: invalid delta: %v", a.Name(), err)
	}
	got, err := d.Apply(ref)
	if err != nil {
		t.Fatalf("%s: Apply: %v", a.Name(), err)
	}
	if !bytes.Equal(got, version) {
		t.Fatalf("%s: round trip mismatch: got %d bytes, want %d", a.Name(), len(got), len(version))
	}
	return d
}

func TestByName(t *testing.T) {
	for _, name := range []string{"linear", "greedy", "null"} {
		a, err := ByName(name)
		if err != nil || a.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, a, err)
		}
	}
	for _, name := range []string{"nope", "auto", "parallel"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted an unknown algorithm", name)
		}
	}
}

func TestNull(t *testing.T) {
	ref := []byte("reference")
	version := []byte("version data")
	d := roundTrip(t, Null{}, ref, version)
	if len(d.Commands) != 1 || d.Commands[0].Op != delta.OpAdd {
		t.Fatalf("null delta = %v", d.Commands)
	}
	// Null must copy the version bytes, not alias them.
	version[0] = 'X'
	if d.Commands[0].Data[0] == 'X' {
		t.Fatal("null delta aliases the caller's version buffer")
	}
}

func TestIdenticalFiles(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefghijklmnop"), 64)
	for _, a := range []Algorithm{NewLinear(), NewGreedy()} {
		d := roundTrip(t, a, data, data)
		if n := d.NumCopies(); n == 0 {
			t.Errorf("%s: identical files found no copies", a.Name())
		}
		if added := d.AddedBytes(); added != 0 {
			t.Errorf("%s: identical files added %d literal bytes", a.Name(), added)
		}
	}
}

func TestEmptyCases(t *testing.T) {
	for _, a := range algorithms {
		roundTrip(t, a, nil, nil)
		roundTrip(t, a, []byte("something"), nil)
		roundTrip(t, a, nil, []byte("new content"))
		roundTrip(t, a, []byte("ab"), []byte("cd")) // both below seed length
	}
}

func TestCompletelyDifferentFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := make([]byte, 4096)
	version := make([]byte, 4096)
	rng.Read(ref)
	rng.Read(version)
	for _, a := range []Algorithm{NewLinear(), NewGreedy()} {
		d := roundTrip(t, a, ref, version)
		// Nearly everything must be adds; random data has no real matches.
		if d.AddedBytes() < int64(len(version))*9/10 {
			t.Errorf("%s: only %d of %d bytes added for unrelated files",
				a.Name(), d.AddedBytes(), len(version))
		}
	}
}

// mutate applies edits (replace, insert, delete) and returns the new
// version.
func mutate(rng *rand.Rand, base []byte, edits int) []byte {
	out := append([]byte(nil), base...)
	for k := 0; k < edits; k++ {
		if len(out) == 0 {
			break
		}
		at := rng.Intn(len(out))
		n := rng.Intn(32) + 1
		switch rng.Intn(3) {
		case 0: // replace
			for j := 0; j < n && at+j < len(out); j++ {
				out[at+j] = byte(rng.Intn(256))
			}
		case 1: // insert
			ins := make([]byte, n)
			rng.Read(ins)
			out = append(out[:at], append(ins, out[at:]...)...)
		case 2: // delete
			end := at + n
			if end > len(out) {
				end = len(out)
			}
			out = append(out[:at], out[end:]...)
		}
	}
	return out
}

func TestSmallEditsCompressWell(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := make([]byte, 64<<10)
	rng.Read(ref)
	version := mutate(rng, ref, 20)
	for _, a := range []Algorithm{NewLinear(), NewGreedy()} {
		d := roundTrip(t, a, ref, version)
		ratio := float64(d.AddedBytes()) / float64(len(version))
		if ratio > 0.10 {
			t.Errorf("%s: added fraction %.2f for 20 edits on 64KiB, want < 0.10", a.Name(), ratio)
		}
	}
}

func TestBlockMove(t *testing.T) {
	// Swap two halves: differencers must express this as copies, not adds.
	rng := rand.New(rand.NewSource(3))
	a := make([]byte, 8<<10)
	b := make([]byte, 8<<10)
	rng.Read(a)
	rng.Read(b)
	ref := append(append([]byte(nil), a...), b...)
	version := append(append([]byte(nil), b...), a...)
	for _, alg := range []Algorithm{NewLinear(), NewGreedy()} {
		d := roundTrip(t, alg, ref, version)
		if d.AddedBytes() > 64 {
			t.Errorf("%s: block move added %d bytes", alg.Name(), d.AddedBytes())
		}
	}
}

func TestLinearOptions(t *testing.T) {
	l := NewLinear(WithSeedLen(2), WithTableBits(4))
	if l.seedLen != 4 {
		t.Errorf("seed length clamped to %d, want 4", l.seedLen)
	}
	if l.tableBits != 8 {
		t.Errorf("table bits clamped to %d, want 8", l.tableBits)
	}
	l = NewLinear(WithSeedLen(32), WithTableBits(40))
	if l.seedLen != 32 || l.tableBits != 26 {
		t.Errorf("options not applied: %+v", l)
	}
	// And the configured differencer still round-trips.
	rng := rand.New(rand.NewSource(4))
	ref := make([]byte, 4096)
	rng.Read(ref)
	roundTrip(t, l, ref, mutate(rng, ref, 5))
}

func TestGreedyOptions(t *testing.T) {
	g := NewGreedy(WithGreedySeedLen(2), WithMaxChain(0))
	if g.seedLen != 4 || g.maxChain != 0 {
		t.Errorf("options not applied: %+v", g)
	}
	rng := rand.New(rand.NewSource(5))
	ref := make([]byte, 4096)
	rng.Read(ref)
	roundTrip(t, g, ref, mutate(rng, ref, 5))
}

func TestGreedyFindsLongerMatchesThanFirstHit(t *testing.T) {
	// Reference contains a short and a long occurrence of a pattern; the
	// greedy algorithm must choose the long one.
	pat := bytes.Repeat([]byte("Z"), 8)
	long := append(append([]byte(nil), pat...), bytes.Repeat([]byte("Q"), 100)...)
	ref := append(append([]byte(nil), pat...), []byte("diverges-now-xxxxxxxxxxxxxxxx")...)
	ref = append(ref, long...)
	version := long
	d := roundTrip(t, NewGreedy(), ref, version)
	if d.NumCopies() == 0 {
		t.Fatal("no copies found")
	}
	first := d.Commands[0]
	if first.Op != delta.OpCopy || first.Length < int64(len(long)) {
		t.Fatalf("first command %v does not cover the long match", first)
	}
}

func TestKRHasherRolling(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	const p = 7
	h1 := newKRHasher(p)
	h1.init(data[:p])
	for k := 0; k+p < len(data); k++ {
		rolled := h1.roll(data[k], data[k+p])
		h2 := newKRHasher(p)
		fresh := h2.init(data[k+1 : k+1+p])
		if rolled != fresh {
			t.Fatalf("rolled hash at %d = %x, fresh = %x", k+1, rolled, fresh)
		}
	}
}

func TestQuickRoundTripMutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, rng.Intn(8<<10)+1)
		// Mix of compressible and random content.
		if seed%2 == 0 {
			chunk := make([]byte, 64)
			rng.Read(chunk)
			for at := 0; at < len(base); at += 64 {
				copy(base[at:], chunk)
			}
		} else {
			rng.Read(base)
		}
		version := mutate(rng, base, rng.Intn(12))
		for _, a := range algorithms {
			d, err := a.Diff(base, version)
			if err != nil {
				return false
			}
			if err := d.Validate(); err != nil {
				return false
			}
			got, err := d.Apply(base)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, version) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffOutputIsWriteOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := make([]byte, 32<<10)
	rng.Read(ref)
	version := mutate(rng, ref, 40)
	for _, a := range algorithms {
		d, err := a.Diff(ref, version)
		if err != nil {
			t.Fatal(err)
		}
		var next int64
		for k, c := range d.Commands {
			if c.To != next {
				t.Fatalf("%s: command %d writes at %d, expected %d", a.Name(), k, c.To, next)
			}
			next += c.Length
		}
		if next != d.VersionLen {
			t.Fatalf("%s: commands cover %d bytes of %d", a.Name(), next, d.VersionLen)
		}
	}
}
