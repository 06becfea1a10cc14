package ipdelta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFacadeQuickstart(t *testing.T) {
	old := []byte("the quick brown fox jumps over the lazy dog; the quick brown fox again")
	new_ := []byte("the slow brown fox jumps over the lazy dog; the quick brown fox again and again")

	d, err := Diff(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Patch(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new_) {
		t.Fatal("Patch mismatch")
	}

	ip, st, err := ConvertInPlace(d, old)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("nil stats")
	}
	buf := make([]byte, ip.InPlaceBufLen())
	copy(buf, old)
	if err := PatchInPlace(buf, ip); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:ip.VersionLen], new_) {
		t.Fatal("PatchInPlace mismatch")
	}
}

func TestPatchInPlaceRejectsUnsafeDelta(t *testing.T) {
	// A half-swap delta violates Equation 2; the facade must refuse it.
	d := &Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []Command{
			NewCopy(4, 0, 4),
			NewCopy(0, 4, 4),
		},
	}
	buf := []byte("AAAABBBB")
	if err := PatchInPlace(buf, d); err == nil {
		t.Fatal("unsafe delta accepted")
	}
	if string(buf) != "AAAABBBB" {
		t.Fatal("buffer modified despite rejection")
	}
}

func TestFacadeEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	old := make([]byte, 4096)
	rng.Read(old)
	new_ := append([]byte(nil), old...)
	copy(new_[1024:2048], old[2048:3072])

	ip, _, err := DiffInPlace(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Encode(&buf, ip, FormatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := EncodedSize(ip, FormatCompact); err != nil || size != n {
		t.Fatalf("EncodedSize = %d, %v; Encode wrote %d", size, err, n)
	}
	got, f, err := Decode(&buf)
	if err != nil || f != FormatCompact {
		t.Fatalf("Decode: %v %v", f, err)
	}
	out, err := Patch(old, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, new_) {
		t.Fatal("round trip mismatch")
	}
}

func TestFacadePolicies(t *testing.T) {
	if ConstantTime.Name() != "constant-time" || LocallyMinimum.Name() != "locally-minimum" {
		t.Fatal("policy names wrong")
	}
	old := []byte("AAAABBBBCCCCDDDD")
	new_ := []byte("BBBBAAAADDDDCCCC") // two swaps: two cycles
	d, err := Diff(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{ConstantTime, LocallyMinimum} {
		ip, _, err := ConvertInPlace(d, old, WithPolicy(p))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, ip.InPlaceBufLen())
		copy(buf, old)
		if err := PatchInPlace(buf, ip); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:ip.VersionLen], new_) {
			t.Fatalf("%s: wrong result", p.Name())
		}
	}
}

func TestFacadeGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	old := make([]byte, 8192)
	rng.Read(old)
	new_ := append([]byte(nil), old[4096:]...)
	new_ = append(new_, old[:4096]...)
	d, err := DiffGreedy(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Patch(old, d)
	if err != nil || !bytes.Equal(got, new_) {
		t.Fatal("greedy round trip failed")
	}
}

// TestFacadeQuickEndToEnd is the whole-pipeline property test at the public
// API level: diff → convert → encode → decode → patch in place == version.
func TestFacadeQuickEndToEnd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, rng.Intn(8192)+16)
		rng.Read(old)
		new_ := append([]byte(nil), old...)
		// random block swap + edits
		if len(new_) > 64 {
			a, b := rng.Intn(len(new_)/2), len(new_)/2+rng.Intn(len(new_)/2)
			n := rng.Intn(len(new_) / 4)
			for k := 0; k < n && b+k < len(new_); k++ {
				new_[a+k], new_[b+k] = new_[b+k], new_[a+k]
			}
		}
		for k := 0; k < rng.Intn(10); k++ {
			new_[rng.Intn(len(new_))] = byte(rng.Intn(256))
		}

		ip, _, err := DiffInPlace(old, new_)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, ip, FormatCompact); err != nil {
			return false
		}
		dec, _, err := Decode(&buf)
		if err != nil {
			return false
		}
		work := make([]byte, dec.InPlaceBufLen())
		copy(work, old)
		if err := PatchInPlace(work, dec); err != nil {
			return false
		}
		return bytes.Equal(work[:dec.VersionLen], new_)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeScratchBudget(t *testing.T) {
	old := []byte("AAAABBBB")
	new_ := []byte("BBBBAAAA")
	d, err := Diff(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	ip, st, err := ConvertInPlace(d, old, WithScratchBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if st.StashedCopies == 0 && st.ConvertedCopies == 0 {
		t.Skip("differencer emitted a cycle-free delta for the swap")
	}
	if ip.ScratchRequired() > 8 {
		t.Fatalf("scratch required %d > budget", ip.ScratchRequired())
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, ip, FormatScratch); err != nil {
		t.Fatal(err)
	}
	got, f, err := Decode(&buf)
	if err != nil || f != FormatScratch {
		t.Fatalf("decode: %v %v", f, err)
	}
	out, err := Patch(old, got)
	if err != nil || !bytes.Equal(out, new_) {
		t.Fatalf("patch: %q %v", out, err)
	}
}
