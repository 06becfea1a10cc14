package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"ipdelta/internal/delta"
)

var allFormats = []Format{
	FormatOrdered, FormatOffsets, FormatLegacyOrdered, FormatLegacyOffsets, FormatCompact, FormatScratch,
}

// orderedDelta returns a delta whose commands are in contiguous write
// order, encodable in every format.
func orderedDelta() *delta.Delta {
	return &delta.Delta{
		RefLen:     400,
		VersionLen: 320,
		Commands: []delta.Command{
			delta.NewCopy(0, 0, 100),
			delta.NewAdd(100, bytes.Repeat([]byte("x"), 20)),
			delta.NewCopy(150, 120, 200),
		},
	}
}

// permutedDelta returns an in-place style delta: copies out of write order,
// adds at the end.
func permutedDelta() *delta.Delta {
	return &delta.Delta{
		RefLen:     400,
		VersionLen: 320,
		Commands: []delta.Command{
			delta.NewCopy(150, 120, 200),
			delta.NewCopy(0, 0, 100),
			delta.NewAdd(100, bytes.Repeat([]byte("y"), 20)),
		},
	}
}

func TestFormatString(t *testing.T) {
	for _, f := range allFormats {
		if f.String() == "" {
			t.Errorf("format %d has empty name", f)
		}
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("bogus"); err == nil {
		t.Error("ParseFormat accepted bogus name")
	}
	if got := Format(99).String(); got != "format(99)" {
		t.Errorf("unknown format String() = %q", got)
	}
}

func TestInPlaceCapable(t *testing.T) {
	want := map[Format]bool{
		FormatOrdered:       false,
		FormatOffsets:       true,
		FormatLegacyOrdered: false,
		FormatLegacyOffsets: true,
		FormatCompact:       true,
		FormatScratch:       true,
	}
	for f, capable := range want {
		if f.InPlaceCapable() != capable {
			t.Errorf("%v.InPlaceCapable() = %v, want %v", f, f.InPlaceCapable(), capable)
		}
	}
}

func TestUvarintLen(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {1 << 62, 9},
	}
	for _, tt := range tests {
		if got := UvarintLen(tt.v); got != tt.want {
			t.Errorf("UvarintLen(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
	if VarintLen(-1) != 1 || VarintLen(64) != 2 {
		t.Error("VarintLen gave unexpected sizes")
	}
}

// applyBoth decodes enc and applies the result to ref, returning the
// materialized version.
func applyBoth(t *testing.T, enc []byte, ref []byte) []byte {
	t.Helper()
	d, _, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("decoded delta invalid: %v", err)
	}
	out, err := d.Apply(ref)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return out
}

func TestRoundTripAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := make([]byte, 400)
	rng.Read(ref)
	d := orderedDelta()
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allFormats {
		t.Run(f.String(), func(t *testing.T) {
			var buf bytes.Buffer
			n, err := Encode(&buf, d, f)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("Encode reported %d bytes, wrote %d", n, buf.Len())
			}
			got := applyBoth(t, buf.Bytes(), ref)
			if !bytes.Equal(got, want) {
				t.Fatal("round trip changed the materialized version")
			}
		})
	}
}

func TestRoundTripPermuted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := make([]byte, 400)
	rng.Read(ref)
	d := permutedDelta()
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range allFormats {
		if !f.InPlaceCapable() {
			continue
		}
		t.Run(f.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := Encode(&buf, d, f); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got := applyBoth(t, buf.Bytes(), ref)
			if !bytes.Equal(got, want) {
				t.Fatal("round trip changed the materialized version")
			}
		})
	}
}

func TestOrderedRejectsPermuted(t *testing.T) {
	d := permutedDelta()
	for _, f := range []Format{FormatOrdered, FormatLegacyOrdered} {
		if _, err := Encode(io.Discard, d, f); !errors.Is(err, ErrNotOrdered) {
			t.Errorf("%v: error = %v, want ErrNotOrdered", f, err)
		}
	}
}

func TestCompactPreservesCopyOrder(t *testing.T) {
	d := permutedDelta()
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatCompact); err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Copies must come back in the original application order; adds follow.
	if got.Commands[0].To != 120 || got.Commands[1].To != 0 {
		t.Fatalf("copy order not preserved: %v", got.Commands)
	}
	if got.Commands[2].Op != delta.OpAdd {
		t.Fatal("adds must come last in compact format")
	}
}

func TestLegacySplitsLongAdds(t *testing.T) {
	data := make([]byte, 1000)
	for k := range data {
		data[k] = byte(k)
	}
	d := &delta.Delta{
		RefLen:     0,
		VersionLen: 1000,
		Commands:   []delta.Command{delta.NewAdd(0, data)},
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatLegacyOrdered); err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Commands) != 4 { // 255+255+255+235
		t.Fatalf("legacy add split into %d commands, want 4", len(got.Commands))
	}
	out, err := got.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("split adds do not reassemble the data")
	}
}

func TestLegacyCopyCodewordSelection(t *testing.T) {
	// Force each copy codeword size by from-offset/length magnitude.
	d := &delta.Delta{
		RefLen:     1 << 33,
		VersionLen: 131322,
		Commands: []delta.Command{
			delta.NewCopy(100, 0, 10),            // short: f<=0xFFFF, l<=0xFF
			delta.NewCopy(0x10000, 10, 0x100),    // med: f>0xFFFF
			delta.NewCopy(1<<32, 266, 0x10000),   // long: f>0xFFFFFFFF
			delta.NewCopy(50, 65802, 0x10000-16), // med by length
		},
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatLegacyOffsets); err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Commands) != 4 {
		t.Fatalf("got %d commands", len(got.Commands))
	}
	for k := range d.Commands {
		if !got.Commands[k].Equal(d.Commands[k]) {
			t.Errorf("command %d: got %v, want %v", k, got.Commands[k], d.Commands[k])
		}
	}
}

func TestEncodeRejectsInvalidDelta(t *testing.T) {
	bad := &delta.Delta{RefLen: 4, VersionLen: 4,
		Commands: []delta.Command{delta.NewCopy(0, 2, 4)}}
	if _, err := Encode(io.Discard, bad, FormatOffsets); err == nil {
		t.Fatal("Encode accepted an invalid delta")
	}
}

func TestEncodedSizeOrderedSmallerThanOffsets(t *testing.T) {
	d := orderedDelta()
	ordered, err := EncodedSize(d, FormatOrdered)
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := EncodedSize(d, FormatOffsets)
	if err != nil {
		t.Fatal(err)
	}
	if ordered >= offsets {
		t.Fatalf("ordered %d >= offsets %d; write offsets must cost bytes", ordered, offsets)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := orderedDelta()
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatOffsets); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] = 'X'
		if _, _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("error = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad format byte", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[4] = 99
		if _, _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("error = %v, want ErrBadFormat", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-6] ^= 0x40
		_, _, err := Decode(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("accepted corrupted payload")
		}
	})
	t.Run("flipped checksum", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 0x01
		if _, _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("error = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 1; cut < len(enc); cut += 3 {
			if _, _, err := Decode(bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("accepted truncation at %d bytes", cut)
			}
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := NewDecoder(bytes.NewReader(nil)); err == nil {
			t.Fatal("accepted empty input")
		}
	})
}

func TestDecoderStreaming(t *testing.T) {
	d := orderedDelta()
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatOffsets); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr := dec.Header()
	if hdr.RefLen != d.RefLen || hdr.VersionLen != d.VersionLen || hdr.NumCommands != len(d.Commands) {
		t.Fatalf("header = %+v", hdr)
	}
	var n int
	for {
		c, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !c.Equal(d.Commands[n]) {
			t.Fatalf("command %d: got %v, want %v", n, c, d.Commands[n])
		}
		n++
	}
	if n != len(d.Commands) {
		t.Fatalf("streamed %d commands, want %d", n, len(d.Commands))
	}
	// A second Next after EOF keeps returning EOF.
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next() = %v", err)
	}
}

func TestEmptyVersionRoundTrip(t *testing.T) {
	d := &delta.Delta{RefLen: 10, VersionLen: 0}
	for _, f := range allFormats {
		var buf bytes.Buffer
		if _, err := Encode(&buf, d, f); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		got, gf, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if gf != f || len(got.Commands) != 0 || got.RefLen != 10 {
			t.Fatalf("%v: got %+v", f, got)
		}
	}
}

// randomOrderedDelta builds a valid delta in write order over a reference
// of the given length, for property tests.
func randomOrderedDelta(rng *rand.Rand, refLen int64) *delta.Delta {
	d := &delta.Delta{RefLen: refLen}
	var at int64
	n := rng.Intn(20) + 1
	for k := 0; k < n; k++ {
		l := rng.Int63n(400) + 1
		if rng.Intn(2) == 0 && refLen > 0 {
			from := rng.Int63n(refLen)
			if from+l > refLen {
				l = refLen - from
			}
			if l == 0 {
				continue
			}
			d.Commands = append(d.Commands, delta.NewCopy(from, at, l))
		} else {
			data := make([]byte, l)
			rng.Read(data)
			d.Commands = append(d.Commands, delta.NewAdd(at, data))
		}
		at += l
	}
	d.VersionLen = at
	return d
}

func TestQuickRoundTripEveryFormat(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		refLen := rng.Int63n(2000) + 1
		ref := make([]byte, refLen)
		rng.Read(ref)
		d := randomOrderedDelta(rng, refLen)
		if len(d.Commands) == 0 {
			return true
		}
		want, err := d.Apply(ref)
		if err != nil {
			return false
		}
		for _, format := range allFormats {
			var buf bytes.Buffer
			if _, err := Encode(&buf, d, format); err != nil {
				return false
			}
			got, gf, err := Decode(&buf)
			if err != nil || gf != format {
				return false
			}
			out, err := got.Apply(ref)
			if err != nil {
				return false
			}
			if !bytes.Equal(out, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// scratchDelta returns a delta using stash/unstash commands: the version
// swaps the two halves of the reference via scratch instead of converting
// a copy to an add.
func scratchDelta() *delta.Delta {
	return &delta.Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []delta.Command{
			delta.NewStash(0, 4),   // save first half
			delta.NewCopy(4, 0, 4), // second half -> first
			delta.NewUnstash(4, 4), // saved first half -> second
		},
	}
}

func TestScratchFormatRoundTrip(t *testing.T) {
	d := scratchDelta()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.ScratchRequired() != 4 {
		t.Fatalf("ScratchRequired = %d", d.ScratchRequired())
	}
	ref := []byte("AAAABBBB")
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != "BBBBAAAA" {
		t.Fatalf("scratch apply = %q", want)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatScratch); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header().ScratchLen != 4 {
		t.Fatalf("header scratch = %d", dec.Header().ScratchLen)
	}
	got, f, err := Decode(&buf)
	if err != nil || f != FormatScratch {
		t.Fatalf("Decode: %v %v", f, err)
	}
	if len(got.Commands) != 3 {
		t.Fatalf("commands: %v", got.Commands)
	}
	out, err := got.Apply(ref)
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("round trip: %q %v", out, err)
	}
	// And it is in-place safe.
	if err := got.CheckInPlace(); err != nil {
		t.Fatalf("scratch delta not in-place safe: %v", err)
	}
	inbuf := append([]byte(nil), ref...)
	if err := got.ApplyInPlace(inbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inbuf, want) {
		t.Fatalf("in-place scratch apply = %q", inbuf)
	}
}

func TestScratchCommandsRejectedByOtherFormats(t *testing.T) {
	d := scratchDelta()
	for _, f := range allFormats {
		if f == FormatScratch {
			continue
		}
		if _, err := Encode(io.Discard, d, f); err == nil {
			t.Errorf("%v accepted stash commands", f)
		}
	}
}

// errWriter fails after n bytes, exercising encoder error propagation.
type errWriter struct {
	n int
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestEncodeWriteErrors(t *testing.T) {
	deltas := map[string]*delta.Delta{
		"ordered":  orderedDelta(),
		"permuted": permutedDelta(),
		"scratch":  scratchDelta(),
	}
	for name, d := range deltas {
		for _, f := range allFormats {
			if !f.InPlaceCapable() && name != "ordered" {
				continue
			}
			if name != "scratch" && f == FormatScratch {
				// scratch format accepts these too
			}
			if name == "scratch" && f != FormatScratch {
				continue
			}
			full, err := EncodedSize(d, f)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, f, err)
			}
			// Fail at several cut points; Encode must report an error, not
			// succeed or panic.
			for cut := 0; int64(cut) < full; cut += int(full)/7 + 1 {
				if _, err := Encode(&errWriter{n: cut}, d, f); err == nil {
					t.Fatalf("%s/%v: no error with writer failing at %d/%d", name, f, cut, full)
				}
			}
		}
	}
}

func TestEncodedSizeScratchIncludesHeaderField(t *testing.T) {
	d := scratchDelta()
	n, err := EncodedSize(d, FormatScratch)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty encoding")
	}
}

func TestOffsetsFormatRejectsScratchOpcodeOnWire(t *testing.T) {
	// Hand-craft an offsets-format file whose command carries the stash
	// opcode: the decoder must reject it (scratch commands are only legal
	// in the scratch format).
	d := scratchDelta()
	var buf bytes.Buffer
	if _, err := Encode(&buf, d, FormatScratch); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip the format byte from scratch to offsets; CRC will mismatch, but
	// the opcode error must surface first or the checksum must fail —
	// either way the file is rejected.
	raw[4] = byte(FormatOffsets)
	if _, _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("offsets decoder accepted scratch opcodes")
	}
}

// TestSizeMatchesEncode holds the arithmetic Size to the bytes Encode
// actually writes in the formats it sizes, on ordered deltas, permuted
// in-place shaped deltas and scratch deltas, and checks that it refuses
// the others.
func TestSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(name string, d *delta.Delta, f Format) {
		t.Helper()
		got, err := Size(d, f)
		if f != FormatCompact && f != FormatOffsets && f != FormatScratch {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("%s/%v: Size error %v, want ErrBadFormat", name, f, err)
			}
			return
		}
		var buf bytes.Buffer
		want, wantErr := Encode(&buf, d, f)
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("%s/%v: Size error %v, Encode error %v", name, f, err, wantErr)
		}
		if wantErr == nil && (got != want || got != int64(buf.Len())) {
			t.Fatalf("%s/%v: Size = %d, Encode wrote %d", name, f, got, buf.Len())
		}
	}
	for i := 0; i < 200; i++ {
		d := randomOrderedDelta(rng, int64(rng.Intn(1<<20)))
		for _, f := range allFormats {
			check("ordered", d, f)
		}
		rng.Shuffle(len(d.Commands), func(a, b int) { d.Commands[a], d.Commands[b] = d.Commands[b], d.Commands[a] })
		for _, f := range allFormats {
			check("permuted", d, f)
		}
	}
	for _, f := range allFormats {
		check("scratch", scratchDelta(), f)
		check("scattered", scatteredDelta(300), f)
	}
}

// TestVarintLenMatchesBinary checks the closed-form lengths against
// encoding/binary at every bit width, signed and unsigned.
func TestVarintLenMatchesBinary(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1 << shift, 1<<shift - 1, 1<<shift + 1} {
			if got, want := UvarintLen(u), binary.PutUvarint(buf[:], u); got != want {
				t.Fatalf("UvarintLen(%d) = %d, binary writes %d", u, got, want)
			}
			for _, v := range []int64{int64(u), -int64(u)} {
				if got, want := VarintLen(v), binary.PutVarint(buf[:], v); got != want {
					t.Fatalf("VarintLen(%d) = %d, binary writes %d", v, got, want)
				}
			}
		}
	}
}
