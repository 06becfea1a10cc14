package device

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/inplace"
)

// buildInPlaceDelta creates an in-place reconstructible delta between ref
// and version, encoded in the given format.
func buildInPlaceDelta(t testing.TB, ref, version []byte, f codec.Format) []byte {
	t.Helper()
	d, err := diff.NewLinear().Diff(ref, version)
	if err != nil {
		t.Fatal(err)
	}
	ip, _, err := inplace.Convert(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, ip, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFlashBounds(t *testing.T) {
	f, err := NewFlash([]byte("abcd"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Capacity() != 8 {
		t.Fatalf("Capacity() = %d", f.Capacity())
	}
	buf := make([]byte, 4)
	if err := f.ReadAt(buf, 0); err != nil || string(buf) != "abcd" {
		t.Fatalf("ReadAt: %q, %v", buf, err)
	}
	if err := f.ReadAt(buf, 5); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out-of-bounds read error = %v", err)
	}
	if err := f.WriteAt(buf, 6); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out-of-bounds write error = %v", err)
	}
	if err := f.WriteAt([]byte("xy"), 4); err != nil {
		t.Fatal(err)
	}
	if got := f.Image(6); string(got) != "abcdxy" {
		t.Fatalf("Image = %q", got)
	}
	if _, err := NewFlash(make([]byte, 9), 8); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestFlashAccounting(t *testing.T) {
	f, _ := NewFlash(nil, 100)
	buf := make([]byte, 10)
	_ = f.WriteAt(buf, 0)
	_ = f.WriteAt(buf, 10)
	_ = f.ReadAt(buf, 0)
	s := f.Stats()
	if s.WriteOps != 2 || s.BytesWritten != 20 || s.ReadOps != 1 || s.BytesRead != 10 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFlashPowerCut(t *testing.T) {
	f, _ := NewFlash(nil, 100)
	f.FailAfterWrites(1)
	if err := f.WriteAt([]byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte("b"), 1); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("error = %v, want ErrPowerCut", err)
	}
	// The failed write must not have landed.
	buf := make([]byte, 2)
	_ = f.ReadAt(buf, 0)
	if buf[1] != 0 {
		t.Fatal("failed write modified flash")
	}
	f.FailAfterWrites(-1)
	if err := f.WriteAt([]byte("b"), 1); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceApplySimple(t *testing.T) {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 32 << 10, ChangeRate: 0.08, Seed: 1})
	for _, f := range []codec.Format{codec.FormatOffsets, codec.FormatCompact, codec.FormatLegacyOffsets} {
		enc := buildInPlaceDelta(t, pair.Ref, pair.Version, f)
		capacity := int64(len(pair.Ref))
		if int64(len(pair.Version)) > capacity {
			capacity = int64(len(pair.Version))
		}
		flash, err := NewFlash(pair.Ref, capacity)
		if err != nil {
			t.Fatal(err)
		}
		dev := New(flash, int64(len(pair.Ref)), DefaultWorkBufSize)
		if err := dev.Apply(bytes.NewReader(enc)); err != nil {
			t.Fatalf("%v: Apply: %v", f, err)
		}
		if dev.Updating() {
			t.Fatalf("%v: update still pending", f)
		}
		if !bytes.Equal(dev.Image(), pair.Version) {
			t.Fatalf("%v: image mismatch", f)
		}
	}
}

func TestDeviceRejectsOrderedFormat(t *testing.T) {
	ref := []byte("0123456789abcdef")
	d, err := diff.Null{}.Diff(ref, []byte("new-contents-xyz"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatOrdered); err != nil {
		t.Fatal(err)
	}
	flash, _ := NewFlash(ref, 32)
	dev := New(flash, int64(len(ref)), 64)
	if err := dev.Apply(&buf); !errors.Is(err, ErrNotInPlace) {
		t.Fatalf("error = %v, want ErrNotInPlace", err)
	}
}

func TestDeviceRejectsWrongImage(t *testing.T) {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Text, Size: 8 << 10, ChangeRate: 0.05, Seed: 2})
	enc := buildInPlaceDelta(t, pair.Ref, pair.Version, codec.FormatCompact)
	flash, _ := NewFlash(pair.Ref[:4<<10], 32<<10)
	dev := New(flash, 4<<10, DefaultWorkBufSize) // image half the expected size
	if err := dev.Apply(bytes.NewReader(enc)); !errors.Is(err, ErrWrongVersion) {
		t.Fatalf("error = %v, want ErrWrongVersion", err)
	}
}

func TestDeviceRejectsOversizedVersion(t *testing.T) {
	ref := make([]byte, 64)
	version := make([]byte, 256)
	rand.New(rand.NewSource(3)).Read(version)
	enc := buildInPlaceDelta(t, ref, version, codec.FormatCompact)
	flash, _ := NewFlash(ref, 100) // too small for the new version
	dev := New(flash, 64, 64)
	if err := dev.Apply(bytes.NewReader(enc)); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("error = %v, want ErrImageTooLarge", err)
	}
}

func TestDeviceGrowAndShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := make([]byte, 8<<10)
	rng.Read(ref)

	grown := append(append([]byte(nil), ref...), make([]byte, 4<<10)...)
	rng.Read(grown[len(ref):])
	enc := buildInPlaceDelta(t, ref, grown, codec.FormatCompact)
	flash, _ := NewFlash(ref, int64(len(grown)))
	dev := New(flash, int64(len(ref)), DefaultWorkBufSize)
	if err := dev.Apply(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if dev.ImageLen() != int64(len(grown)) || !bytes.Equal(dev.Image(), grown) {
		t.Fatal("grow failed")
	}

	shrunk := grown[2<<10 : 6<<10]
	enc = buildInPlaceDelta(t, grown, shrunk, codec.FormatCompact)
	if err := dev.Apply(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if dev.ImageLen() != int64(len(shrunk)) || !bytes.Equal(dev.Image(), shrunk) {
		t.Fatal("shrink failed")
	}
}

func TestDevicePowerCutResume(t *testing.T) {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: 64 << 10, ChangeRate: 0.15, Seed: 5})
	enc := buildInPlaceDelta(t, pair.Ref, pair.Version, codec.FormatCompact)
	capacity := int64(len(pair.Ref))
	if int64(len(pair.Version)) > capacity {
		capacity = int64(len(pair.Version))
	}
	flash, err := NewFlash(pair.Ref, capacity)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(flash, int64(len(pair.Ref)), 512)

	// Cut power repeatedly at increasing points until the update survives.
	cuts := 0
	for fail := int64(1); ; fail += 7 {
		flash.FailAfterWrites(fail)
		err := dev.Apply(bytes.NewReader(enc))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPowerCut) {
			t.Fatalf("unexpected error: %v", err)
		}
		if !dev.Updating() {
			t.Fatal("device lost its pending-update state")
		}
		cuts++
		if cuts > 10000 {
			t.Fatal("update never completed")
		}
	}
	if cuts == 0 {
		t.Fatal("test never exercised a power cut")
	}
	if !bytes.Equal(dev.Image(), pair.Version) {
		t.Fatalf("image corrupt after %d power cuts", cuts)
	}
}

// TestDevicePowerCutAtEveryWrite cuts power once at each write of an
// update, for every write index of an uncut apply, and resumes with a
// clean Apply: whatever write the cut lands on, the device must converge to
// the image the delta's scratch apply produces.
func TestDevicePowerCutAtEveryWrite(t *testing.T) {
	pair := scratchPair(t, 16<<10)
	// An insertion shifts the tail, so its copies overlap their own
	// sources and a resume must continue them in the same direction.
	pair.Version = append(append(pair.Version[:64:64], "inserted"...), pair.Version[64:]...)
	raw, err := diff.NewLinear().Diff(pair.Ref, pair.Version)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		format codec.Format
		budget int64
	}{
		{codec.FormatCompact, 0},
		{codec.FormatOffsets, 0},
		{codec.FormatScratch, 4 << 10},
	} {
		t.Run(tc.format.String(), func(t *testing.T) {
			d, st, err := inplace.Convert(raw, pair.Ref, inplace.WithScratchBudget(tc.budget))
			if err != nil {
				t.Fatal(err)
			}
			if st.CyclesBroken == 0 {
				t.Fatal("test input has no cycles")
			}
			if tc.budget > 0 && st.ScratchUsed == 0 {
				t.Fatal("scratch budget produced no stashes")
			}
			want, err := d.Apply(pair.Ref)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := codec.Encode(&buf, d, tc.format); err != nil {
				t.Fatal(err)
			}
			enc := buf.Bytes()
			fresh := func() (*Flash, *Device) {
				flash, err := NewFlash(pair.Ref, int64(max(len(pair.Ref), len(pair.Version)))+st.ScratchUsed)
				if err != nil {
					t.Fatal(err)
				}
				// A small work buffer splits each command into many
				// writes, so cuts also land mid-command.
				return flash, New(flash, int64(len(pair.Ref)), 128)
			}

			flash, dev := fresh()
			if err := dev.Apply(bytes.NewReader(enc)); err != nil {
				t.Fatal(err)
			}
			writes := flash.Stats().WriteOps
			for k := int64(0); k <= writes; k++ {
				flash, dev := fresh()
				flash.FailAfterWrites(k)
				switch err := dev.Apply(bytes.NewReader(enc)); {
				case errors.Is(err, ErrPowerCut):
					if !dev.Updating() {
						t.Fatalf("cut at write %d: device lost its pending-update state", k)
					}
					flash.FailAfterWrites(-1)
					if err := dev.Apply(bytes.NewReader(enc)); err != nil {
						t.Fatalf("resume after cut at write %d: %v", k, err)
					}
				case err != nil:
					t.Fatalf("cut at write %d: %v", k, err)
				case k < writes:
					t.Fatalf("cut at write %d of %d never fired", k, writes)
				}
				if !bytes.Equal(dev.Image(), want) {
					t.Fatalf("image corrupt after a cut at write %d of %d", k, writes)
				}
			}
		})
	}
}

// TestDeviceImageCRCMemo: ImageCRC reads the image once and then answers
// from memory until the next flash write. A power cut mid-Apply or
// mid-InstallFull leaves no stale value: the next ImageCRC is the CRC of
// the partial flash.
func TestDeviceImageCRCMemo(t *testing.T) {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: 64 << 10, ChangeRate: 0.15, Seed: 5})
	enc := buildInPlaceDelta(t, pair.Ref, pair.Version, codec.FormatCompact)
	capacity := int64(max(len(pair.Ref), len(pair.Version)))
	flash, err := NewFlash(pair.Ref, capacity)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(flash, int64(len(pair.Ref)), 512)
	// checkCRC requires ImageCRC to match the flash and to read it whole
	// only when read is set.
	checkCRC := func(label string, read bool) uint32 {
		t.Helper()
		before := flash.Stats().BytesRead
		got, err := dev.ImageCRC()
		if err != nil {
			t.Fatal(err)
		}
		if want := crc32.ChecksumIEEE(flash.Image(dev.ImageLen())); got != want {
			t.Fatalf("%s: ImageCRC %08x, flash holds %08x", label, got, want)
		}
		want := int64(0)
		if read {
			want = dev.ImageLen()
		}
		if n := flash.Stats().BytesRead - before; n != want {
			t.Fatalf("%s: ImageCRC read %d bytes, want %d", label, n, want)
		}
		return got
	}
	refCRC := checkCRC("first", true)
	checkCRC("repeat", false)

	changed := 0
	for fail := int64(1); ; fail += 7 {
		flash.FailAfterWrites(fail)
		err := dev.Apply(bytes.NewReader(enc))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPowerCut) {
			t.Fatalf("unexpected error: %v", err)
		}
		if checkCRC(fmt.Sprintf("cut after %d writes", fail), true) != refCRC {
			changed++
		}
		checkCRC("repeat after cut", false)
	}
	if changed == 0 {
		t.Fatal("no cut left a partial flash that differs from the reference")
	}
	if got := checkCRC("applied", true); got != crc32.ChecksumIEEE(pair.Version) {
		t.Fatal("ImageCRC after Apply is not the version's CRC")
	}

	flash.FailAfterWrites(3)
	if err := dev.InstallFull(bytes.NewReader(pair.Ref), int64(len(pair.Ref))); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("InstallFull: %v, want a power cut", err)
	}
	checkCRC("cut install", true)
	flash.FailAfterWrites(-1)
	if err := dev.InstallFull(bytes.NewReader(pair.Ref), int64(len(pair.Ref))); err != nil {
		t.Fatal(err)
	}
	if got := checkCRC("installed", true); got != refCRC {
		t.Fatal("ImageCRC after InstallFull is not the image's CRC")
	}
}

func TestDeviceResumeMismatchRejected(t *testing.T) {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 16 << 10, ChangeRate: 0.10, Seed: 6})
	enc := buildInPlaceDelta(t, pair.Ref, pair.Version, codec.FormatCompact)
	flash, _ := NewFlash(pair.Ref, int64(len(pair.Ref))+(16<<10))
	dev := New(flash, int64(len(pair.Ref)), 256)
	flash.FailAfterWrites(3)
	if err := dev.Apply(bytes.NewReader(enc)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("expected power cut, got %v", err)
	}
	flash.FailAfterWrites(-1)

	// A different delta must be rejected while the update is pending.
	other := buildInPlaceDelta(t, pair.Ref, append([]byte("zz"), pair.Version...), codec.FormatCompact)
	if err := dev.Apply(bytes.NewReader(other)); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("error = %v, want ErrResumeMismatch", err)
	}
	// The right one resumes and completes.
	if err := dev.Apply(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Image(), pair.Version) {
		t.Fatal("image mismatch after resume")
	}
}

func TestDevicePendingUpdate(t *testing.T) {
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Text, Size: 8 << 10, ChangeRate: 0.10, Seed: 7})
	enc := buildInPlaceDelta(t, pair.Ref, pair.Version, codec.FormatCompact)
	flash, _ := NewFlash(pair.Ref, 32<<10)
	dev := New(flash, int64(len(pair.Ref)), 256)
	if _, ok := dev.PendingUpdate(); ok {
		t.Fatal("fresh device reports a pending update")
	}
	wantCRC, err := dev.ImageCRC()
	if err != nil {
		t.Fatal(err)
	}
	flash.FailAfterWrites(2)
	if err := dev.Apply(bytes.NewReader(enc)); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("expected power cut, got %v", err)
	}
	p, ok := dev.PendingUpdate()
	if !ok {
		t.Fatal("no pending update after interruption")
	}
	if p.RefCRC != wantCRC || p.RefLen != int64(len(pair.Ref)) || p.VersionLen != int64(len(pair.Version)) {
		t.Fatalf("pending = %+v", p)
	}
}

func TestDeviceWorkBufMinimum(t *testing.T) {
	flash, _ := NewFlash(nil, 64)
	dev := New(flash, 0, 1)
	if dev.workSize != 16 {
		t.Fatalf("work buffer %d bytes, want clamped to 16", dev.workSize)
	}
}

func TestQuickDeviceMatchesScratchApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pair := corpus.Generate(corpus.PairSpec{
			Profile:    corpus.Profile(rng.Intn(3) + 1),
			Size:       rng.Intn(16<<10) + 1024,
			ChangeRate: rng.Float64() * 0.4,
			Seed:       seed,
		})
		d, err := diff.NewLinear(diff.WithSeedLen(8)).Diff(pair.Ref, pair.Version)
		if err != nil {
			return false
		}
		ip, _, err := inplace.Convert(d, pair.Ref)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := codec.Encode(&buf, ip, codec.FormatCompact); err != nil {
			return false
		}
		capacity := ip.InPlaceBufLen()
		flash, err := NewFlash(pair.Ref, capacity)
		if err != nil {
			return false
		}
		dev := New(flash, int64(len(pair.Ref)), 128+rng.Intn(1024))
		if err := dev.Apply(&buf); err != nil {
			return false
		}
		return bytes.Equal(dev.Image(), pair.Version)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceCommandValidation(t *testing.T) {
	// A copy reading beyond flash capacity must surface ErrOutOfBounds.
	bad := &delta.Delta{
		RefLen:     16,
		VersionLen: 16,
		Commands:   []delta.Command{delta.NewCopy(0, 0, 16)},
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, bad, codec.FormatOffsets); err != nil {
		t.Fatal(err)
	}
	// Device flash is smaller than the delta claims: capacity check fires.
	flash, _ := NewFlash(make([]byte, 8), 8)
	dev := New(flash, 8, 64)
	if err := dev.Apply(&buf); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("error = %v, want ErrImageTooLarge", err)
	}
	// With enough capacity but a short image, the version check fires.
	flash2, _ := NewFlash(make([]byte, 8), 32)
	dev2 := New(flash2, 8, 64)
	var buf2 bytes.Buffer
	if _, err := codec.Encode(&buf2, bad, codec.FormatOffsets); err != nil {
		t.Fatal(err)
	}
	if err := dev2.Apply(&buf2); !errors.Is(err, ErrWrongVersion) {
		t.Fatalf("error = %v, want ErrWrongVersion", err)
	}
}

func TestDeviceNVRAMWear(t *testing.T) {
	// NVRAM writes are bounded: roughly one per chunk plus one per command
	// plus bookkeeping — far fewer than one per byte.
	pair := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 16 << 10, ChangeRate: 0.05, Seed: 61})
	enc := buildInPlaceDelta(t, pair.Ref, pair.Version, codec.FormatCompact)
	flash, _ := NewFlash(pair.Ref, 64<<10)
	dev := New(flash, int64(len(pair.Ref)), 1024)
	if err := dev.Apply(bytes.NewReader(enc)); err != nil {
		t.Fatal(err)
	}
	writes := dev.NVWrites()
	if writes == 0 {
		t.Fatal("no NVRAM writes recorded")
	}
	bound := int64(len(pair.Version))/1024 + 4*int64(len(enc))/8 + 64
	if writes > bound {
		t.Fatalf("NVRAM wear %d exceeds bound %d", writes, bound)
	}
}
