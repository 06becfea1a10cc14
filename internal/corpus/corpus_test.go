package corpus

import (
	"bytes"
	"testing"

	"ipdelta/internal/diff"
)

func TestProfileString(t *testing.T) {
	if Text.String() != "text" || Binary.String() != "binary" || Firmware.String() != "firmware" || Database.String() != "database" {
		t.Fatal("profile names wrong")
	}
	if Profile(9).String() != "profile(9)" {
		t.Fatal("unknown profile name wrong")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := PairSpec{Profile: Binary, Size: 32 << 10, ChangeRate: 0.1, Seed: 42}
	a := Generate(spec)
	b := Generate(spec)
	if !bytes.Equal(a.Ref, b.Ref) || !bytes.Equal(a.Version, b.Version) {
		t.Fatal("same spec produced different pairs")
	}
	c := Generate(PairSpec{Profile: Binary, Size: 32 << 10, ChangeRate: 0.1, Seed: 43})
	if bytes.Equal(a.Ref, c.Ref) {
		t.Fatal("different seeds produced identical references")
	}
}

func TestGenerateSizes(t *testing.T) {
	for _, p := range []Profile{Text, Binary, Firmware} {
		pair := Generate(PairSpec{Profile: p, Size: 20 << 10, ChangeRate: 0.05, Seed: 1})
		if len(pair.Ref) != 20<<10 {
			t.Errorf("%v: ref size %d", p, len(pair.Ref))
		}
		// Version size should be in the same ballpark (edits insert and
		// delete similar volumes).
		if len(pair.Version) < 15<<10 || len(pair.Version) > 25<<10 {
			t.Errorf("%v: version size %d far from reference", p, len(pair.Version))
		}
		if pair.Name == "" {
			t.Errorf("%v: empty name", p)
		}
	}
}

func TestZeroChangeRate(t *testing.T) {
	pair := Generate(PairSpec{Profile: Text, Size: 8 << 10, ChangeRate: 0, Seed: 7})
	if !bytes.Equal(pair.Ref, pair.Version) {
		t.Fatal("zero change rate must produce identical files")
	}
}

func TestChangeRateOrdersDeltaSize(t *testing.T) {
	// Higher change rates must produce larger deltas.
	lin := diff.NewLinear()
	var prev int64 = -1
	for _, rate := range []float64{0.01, 0.10, 0.40} {
		pair := Generate(PairSpec{Profile: Binary, Size: 64 << 10, ChangeRate: rate, Seed: 11})
		d, err := lin.Diff(pair.Ref, pair.Version)
		if err != nil {
			t.Fatal(err)
		}
		added := d.AddedBytes()
		if added <= prev {
			t.Fatalf("rate %.2f: added bytes %d not larger than previous %d", rate, added, prev)
		}
		prev = added
	}
}

func TestCorpusCompressesWell(t *testing.T) {
	// The paper's corpus compressed to ~15% of original size on average;
	// our synthetic pairs at low change rates must land in that regime
	// (deltas much smaller than the raw version).
	lin := diff.NewLinear()
	for _, pair := range SmallCorpus(5) {
		d, err := lin.Diff(pair.Ref, pair.Version)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(d.AddedBytes()) / float64(len(pair.Version))
		if ratio > 0.5 {
			t.Errorf("%s: added fraction %.2f, pair barely compressible", pair.Name, ratio)
		}
	}
}

func TestFirmwareHasErasedBlocks(t *testing.T) {
	pair := Generate(PairSpec{Profile: Firmware, Size: 64 << 10, ChangeRate: 0, Seed: 3})
	ff := 0
	for _, b := range pair.Ref {
		if b == 0xFF {
			ff++
		}
	}
	if ff < len(pair.Ref)/10 {
		t.Fatalf("only %d 0xFF bytes of %d; erased blocks missing", ff, len(pair.Ref))
	}
}

func TestTextLooksLikeText(t *testing.T) {
	pair := Generate(PairSpec{Profile: Text, Size: 16 << 10, ChangeRate: 0, Seed: 4})
	printable := 0
	for _, b := range pair.Ref {
		if b == '\n' || b == '\t' || (b >= 32 && b < 127) {
			printable++
		}
	}
	if printable != len(pair.Ref) {
		t.Fatalf("%d of %d bytes printable", printable, len(pair.Ref))
	}
}

func TestStandardCorpusGrid(t *testing.T) {
	pairs := StandardCorpus(1)
	if len(pairs) != 4*3*4 {
		t.Fatalf("corpus has %d pairs, want 48", len(pairs))
	}
	seen := map[string]bool{}
	for _, p := range pairs {
		if seen[p.Name] {
			t.Fatalf("duplicate pair name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestDatabaseProfile(t *testing.T) {
	pair := Generate(PairSpec{Profile: Database, Size: 64 << 10, ChangeRate: 0.10, Seed: 17})
	if len(pair.Ref)%dbRecordSize != 0 {
		t.Fatalf("reference not record-aligned: %d", len(pair.Ref))
	}
	if len(pair.Version)%dbRecordSize != 0 {
		t.Fatalf("version not record-aligned: %d", len(pair.Version))
	}
	// Keys ascend in the reference.
	var prev uint64
	for at := 0; at+8 <= len(pair.Ref); at += dbRecordSize {
		var key uint64
		for k := 0; k < 8; k++ {
			key = key<<8 | uint64(pair.Ref[at+k])
		}
		if at > 0 && key <= prev {
			t.Fatalf("keys not ascending at record %d", at/dbRecordSize)
		}
		prev = key
	}
	// Record-aligned edits compress extremely well with blockwise diff at
	// the record size.
	b, err := diff.ByName("blockwise")
	if err != nil {
		t.Fatal(err)
	}
	d, err := b.Diff(pair.Ref, pair.Version)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Apply(pair.Ref); !bytes.Equal(got, pair.Version) {
		t.Fatal("round trip failed")
	}
}

func TestRecordChain(t *testing.T) {
	chain := RecordChain(3, 64<<10, 4)
	if len(chain) != 4 {
		t.Fatalf("%d releases, want 4", len(chain))
	}
	for k, img := range chain {
		if len(img)%recordSize != 0 || len(img) < 48<<10 {
			t.Fatalf("release %d: %d bytes, not a plausible record image", k, len(img))
		}
	}
	again := RecordChain(3, 64<<10, 4)
	for k := range chain {
		if !bytes.Equal(chain[k], again[k]) {
			t.Fatalf("release %d differs between runs with one seed", k)
		}
	}
	if bytes.Equal(chain[0], chain[1]) {
		t.Fatal("a release did not change the image")
	}
}
