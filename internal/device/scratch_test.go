package device

import (
	"bytes"
	"errors"
	"testing"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/inplace"
)

// buildScratchDelta creates a scratch-format delta with the given budget.
func buildScratchDelta(t testing.TB, ref, version []byte, budget int64) ([]byte, int64) {
	t.Helper()
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	ip, st, err := inplace.Convert(d, ref, inplace.WithScratchBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, ip, codec.FormatScratch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st.ScratchUsed
}

// scratchPair generates a pair of the given size whose conversion needs
// conversions (block moves create cycles).
func scratchPair(t testing.TB, size int) corpus.Pair {
	t.Helper()
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: size, ChangeRate: 0.15, Seed: 55})
	// Swap two large blocks, each a sixth of the file, to guarantee cycles.
	b := size / 6
	v := append([]byte(nil), pair.Ref...)
	tmp := append([]byte(nil), v[0:b]...)
	copy(v[0:b], v[2*b:3*b])
	copy(v[2*b:3*b], tmp)
	pair.Version = v
	return pair
}

func TestDeviceScratchApply(t *testing.T) {
	pair := scratchPair(t, 48<<10)
	enc, used := buildScratchDelta(t, pair.Ref, pair.Version, 32<<10)
	if used == 0 {
		t.Fatal("test input produced no stashes; cycles missing")
	}
	imageArea := int64(len(pair.Ref))
	if int64(len(pair.Version)) > imageArea {
		imageArea = int64(len(pair.Version))
	}
	flash, err := NewFlash(pair.Ref, imageArea+used)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(flash, int64(len(pair.Ref)), 1024)
	if err := dev.Apply(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Image(), pair.Version) {
		t.Fatal("scratch apply produced the wrong image")
	}
}

func TestDeviceScratchCapacityEnforced(t *testing.T) {
	pair := scratchPair(t, 48<<10)
	enc, used := buildScratchDelta(t, pair.Ref, pair.Version, 32<<10)
	if used == 0 {
		t.Skip("no stashes")
	}
	imageArea := int64(len(pair.Ref))
	if int64(len(pair.Version)) > imageArea {
		imageArea = int64(len(pair.Version))
	}
	// One byte short of image + scratch.
	flash, err := NewFlash(pair.Ref, imageArea+used-1)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(flash, int64(len(pair.Ref)), 1024)
	if err := dev.Apply(bytes.NewReader(enc)); !errors.Is(err, ErrScratchBudget) {
		t.Fatalf("error = %v, want ErrScratchBudget", err)
	}
}

func TestDeviceScratchPowerCutResume(t *testing.T) {
	pair := scratchPair(t, 48<<10)
	enc, used := buildScratchDelta(t, pair.Ref, pair.Version, 32<<10)
	if used == 0 {
		t.Skip("no stashes")
	}
	imageArea := int64(len(pair.Ref))
	if int64(len(pair.Version)) > imageArea {
		imageArea = int64(len(pair.Version))
	}
	flash, err := NewFlash(pair.Ref, imageArea+used)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(flash, int64(len(pair.Ref)), 512)

	cuts := 0
	for fail := int64(2); ; fail += 11 {
		flash.FailAfterWrites(fail)
		err := dev.Apply(bytes.NewReader(enc))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPowerCut) {
			t.Fatalf("unexpected error: %v", err)
		}
		cuts++
		if cuts > 20000 {
			t.Fatal("never completed")
		}
	}
	if cuts == 0 {
		t.Fatal("no power cut exercised")
	}
	if !bytes.Equal(dev.Image(), pair.Version) {
		t.Fatalf("image corrupt after %d scratch-mode power cuts", cuts)
	}
}
