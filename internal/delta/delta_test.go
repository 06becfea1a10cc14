package delta

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// buildSwap returns a delta over an 8-byte file that swaps its two halves —
// the canonical example with a WR cycle of length 2.
func buildSwap() *Delta {
	return &Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []Command{
			NewCopy(4, 0, 4), // second half -> first
			NewCopy(0, 4, 4), // first half -> second
		},
	}
}

func TestOpString(t *testing.T) {
	if OpCopy.String() != "copy" || OpAdd.String() != "add" {
		t.Fatal("unexpected opcode names")
	}
	if got := Op(9).String(); got != "op(9)" {
		t.Fatalf("unknown op String() = %q", got)
	}
}

func TestCommandIntervals(t *testing.T) {
	c := NewCopy(10, 20, 5)
	if r := c.ReadInterval(); r.Lo != 10 || r.Hi != 14 {
		t.Errorf("copy read interval = %v", r)
	}
	if w := c.WriteInterval(); w.Lo != 20 || w.Hi != 24 {
		t.Errorf("copy write interval = %v", w)
	}
	a := NewAdd(3, []byte("abc"))
	if !a.ReadInterval().Empty() {
		t.Error("add command must have an empty read interval")
	}
	if w := a.WriteInterval(); w.Lo != 3 || w.Hi != 5 {
		t.Errorf("add write interval = %v", w)
	}
}

func TestCommandString(t *testing.T) {
	if got := NewCopy(1, 2, 3).String(); got != "copy⟨1,2,3⟩" {
		t.Errorf("copy String() = %q", got)
	}
	if got := NewAdd(7, []byte("xy")).String(); got != "add⟨7,2⟩" {
		t.Errorf("add String() = %q", got)
	}
	odd := Command{Op: Op(9), From: 1, To: 2, Length: 3}
	if got := odd.String(); !strings.Contains(got, "op(9)") {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestCommandEqual(t *testing.T) {
	a := NewAdd(0, []byte("abc"))
	b := NewAdd(0, []byte("abc"))
	if !a.Equal(b) {
		t.Error("identical adds must be equal")
	}
	c := NewAdd(0, []byte("abd"))
	if a.Equal(c) {
		t.Error("adds with different data must differ")
	}
	if NewCopy(0, 0, 1).Equal(NewCopy(0, 0, 2)) {
		t.Error("copies with different length must differ")
	}
}

func TestCounts(t *testing.T) {
	for _, tc := range []struct {
		name                string
		cmds                []Command
		copies, adds        int
		addBytes, copyBytes int64
	}{
		{
			name:      "copies and adds",
			cmds:      []Command{NewCopy(0, 0, 4), NewAdd(4, []byte("abc")), NewCopy(7, 7, 3)},
			copies:    2,
			adds:      1,
			addBytes:  3,
			copyBytes: 7,
		},
		{
			// Stash and unstash commands count as neither copies nor adds.
			name: "with stash and unstash",
			cmds: []Command{
				NewStash(0, 4),
				NewCopy(4, 0, 3),
				NewAdd(3, []byte("x")),
				NewUnstash(4, 4),
				NewCopy(8, 8, 2),
			},
			copies:    2,
			adds:      1,
			addBytes:  1,
			copyBytes: 5,
		},
	} {
		d := &Delta{RefLen: 10, VersionLen: 10, Commands: tc.cmds}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d.NumCopies() != tc.copies || d.NumAdds() != tc.adds {
			t.Errorf("%s: counts = %d copies, %d adds; want %d, %d",
				tc.name, d.NumCopies(), d.NumAdds(), tc.copies, tc.adds)
		}
		if d.AddedBytes() != tc.addBytes {
			t.Errorf("%s: AddedBytes() = %d, want %d", tc.name, d.AddedBytes(), tc.addBytes)
		}
		if d.CopiedBytes() != tc.copyBytes {
			t.Errorf("%s: CopiedBytes() = %d, want %d", tc.name, d.CopiedBytes(), tc.copyBytes)
		}
	}
}

func TestClone(t *testing.T) {
	d := &Delta{
		RefLen:     4,
		VersionLen: 4,
		Commands:   []Command{NewAdd(0, []byte("abcd"))},
	}
	c := d.Clone()
	c.Commands[0].Data[0] = 'z'
	c.Commands[0].To = 99
	if d.Commands[0].Data[0] != 'a' || d.Commands[0].To != 0 {
		t.Fatal("Clone shares state with original")
	}
}

func TestValidateAccepts(t *testing.T) {
	tests := []struct {
		name string
		d    *Delta
	}{
		{
			name: "copies and adds covering exactly",
			d: &Delta{
				RefLen:     8,
				VersionLen: 10,
				Commands: []Command{
					NewCopy(0, 0, 5),
					NewAdd(5, []byte("ab")),
					NewCopy(3, 7, 3),
				},
			},
		},
		{
			name: "empty version",
			d:    &Delta{RefLen: 8, VersionLen: 0},
		},
		{
			name: "pure add from empty reference",
			d: &Delta{
				RefLen:     0,
				VersionLen: 3,
				Commands:   []Command{NewAdd(0, []byte("abc"))},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.d.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		d    *Delta
		want error
	}{
		{
			name: "bad opcode",
			d: &Delta{RefLen: 4, VersionLen: 4,
				Commands: []Command{{Op: Op(7), Length: 4}}},
			want: ErrBadOp,
		},
		{
			name: "negative offset",
			d: &Delta{RefLen: 4, VersionLen: 4,
				Commands: []Command{NewCopy(-1, 0, 4)}},
			want: ErrNegativeOffset,
		},
		{
			name: "zero length",
			d: &Delta{RefLen: 4, VersionLen: 4,
				Commands: []Command{NewCopy(0, 0, 0), NewCopy(0, 0, 4)}},
			want: ErrZeroLength,
		},
		{
			name: "copy read out of bounds",
			d: &Delta{RefLen: 4, VersionLen: 4,
				Commands: []Command{NewCopy(2, 0, 4)}},
			want: ErrReadOOB,
		},
		{
			name: "write out of bounds",
			d: &Delta{RefLen: 8, VersionLen: 4,
				Commands: []Command{NewCopy(0, 2, 4)}},
			want: ErrWriteOOB,
		},
		{
			name: "overlapping writes",
			d: &Delta{RefLen: 8, VersionLen: 8,
				Commands: []Command{NewCopy(0, 0, 5), NewCopy(0, 4, 4)}},
			want: ErrOverlap,
		},
		{
			name: "coverage gap",
			d: &Delta{RefLen: 8, VersionLen: 8,
				Commands: []Command{NewCopy(0, 0, 4)}},
			want: ErrCoverage,
		},
		{
			name: "add length mismatch",
			d: &Delta{RefLen: 0, VersionLen: 4,
				Commands: []Command{{Op: OpAdd, To: 0, Length: 4, Data: []byte("ab")}}},
			want: ErrAddLength,
		},
		{
			name: "copy with data",
			d: &Delta{RefLen: 4, VersionLen: 4,
				Commands: []Command{{Op: OpCopy, Length: 4, Data: []byte("ab")}}},
			want: ErrAddLength,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.d.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !errors.Is(err, tt.want) {
				t.Fatalf("Validate() = %v, want cause %v", err, tt.want)
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error %v is not a *ValidationError", err)
			}
			if verr.Error() == "" {
				t.Error("empty error message")
			}
		})
	}
}

func TestApply(t *testing.T) {
	ref := []byte("the quick brown fox")
	d := &Delta{
		RefLen:     int64(len(ref)),
		VersionLen: 15,
		Commands: []Command{
			NewCopy(4, 0, 5),           // "quick"
			NewAdd(5, []byte(" red ")), // " red "
			NewCopy(16, 10, 3),         // "fox"
			NewAdd(13, []byte("es")),   // "es"
		},
	}
	got, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want := "quick red foxes"; string(got) != want {
		t.Fatalf("Apply() = %q, want %q", got, want)
	}
}

func TestApplyChecksRefLen(t *testing.T) {
	d := &Delta{RefLen: 10, VersionLen: 0}
	if _, err := d.Apply(make([]byte, 5)); err == nil {
		t.Fatal("Apply accepted wrong reference length")
	}
}

func TestApplyRejectsInvalidCommand(t *testing.T) {
	d := &Delta{RefLen: 4, VersionLen: 4, Commands: []Command{NewCopy(0, 2, 4)}}
	if _, err := d.Apply(make([]byte, 4)); !errors.Is(err, ErrWriteOOB) {
		t.Fatalf("Apply() error = %v, want ErrWriteOOB", err)
	}
}

func TestWRConflicts(t *testing.T) {
	d := buildSwap()
	conflicts := d.WRConflicts()
	if len(conflicts) != 1 {
		t.Fatalf("WRConflicts() = %v, want exactly one", conflicts)
	}
	if conflicts[0] != [2]int{0, 1} {
		t.Fatalf("conflict = %v, want [0 1]", conflicts[0])
	}

	// A delta whose copies only read what no earlier command wrote has none.
	clean := &Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands:   []Command{NewCopy(0, 0, 4), NewCopy(4, 4, 4)},
	}
	if got := clean.WRConflicts(); len(got) != 0 {
		t.Fatalf("clean delta reported conflicts: %v", got)
	}

	// Adds never read, so an add before a copy cannot conflict as reader,
	// but a write by an add landing in a later copy's read interval does.
	addFirst := &Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []Command{
			NewAdd(0, []byte("abcd")),
			NewCopy(0, 4, 4), // reads [0,3] which the add just wrote
		},
	}
	if got := addFirst.WRConflicts(); len(got) != 1 {
		t.Fatalf("add-then-copy conflicts = %v, want one", got)
	}
}

func TestCheckInPlace(t *testing.T) {
	bad := buildSwap()
	err := bad.CheckInPlace()
	var cerr *ConflictError
	if !errors.As(err, &cerr) {
		t.Fatalf("CheckInPlace() = %v, want *ConflictError", err)
	}
	if cerr.Index != 1 {
		t.Errorf("conflict at command %d, want 1", cerr.Index)
	}
	if cerr.Error() == "" {
		t.Error("empty conflict message")
	}

	good := &Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []Command{
			NewCopy(4, 0, 4),
			NewAdd(4, []byte("wxyz")), // replaces the conflicting copy
		},
	}
	if err := good.CheckInPlace(); err != nil {
		t.Fatalf("CheckInPlace() = %v, want nil", err)
	}
}

func TestApplyInPlaceMatchesApply(t *testing.T) {
	ref := []byte("abcdefgh")
	// In-place-safe ordering: read [4,7] before writing it.
	d := &Delta{
		RefLen:     8,
		VersionLen: 8,
		Commands: []Command{
			NewCopy(4, 0, 4),
			NewAdd(4, []byte("ABCD")),
		},
	}
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.InPlaceBufLen())
	copy(buf, ref)
	if err := d.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:d.VersionLen], want) {
		t.Fatalf("in-place = %q, want %q", buf[:d.VersionLen], want)
	}
}

func TestApplyInPlaceGrowingAndShrinking(t *testing.T) {
	// Growing version: buffer must be version-sized.
	grow := &Delta{
		RefLen:     4,
		VersionLen: 8,
		Commands: []Command{
			NewCopy(0, 4, 4),          // move old content right first
			NewAdd(0, []byte("head")), // then write the new head
		},
	}
	if grow.InPlaceBufLen() != 8 {
		t.Fatalf("InPlaceBufLen() = %d, want 8", grow.InPlaceBufLen())
	}
	buf := make([]byte, 8)
	copy(buf, "tail")
	if err := grow.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "headtail" {
		t.Fatalf("grow result = %q", buf)
	}

	// Shrinking version: buffer stays reference-sized.
	shrink := &Delta{
		RefLen:     8,
		VersionLen: 4,
		Commands:   []Command{NewCopy(4, 0, 4)},
	}
	if shrink.InPlaceBufLen() != 8 {
		t.Fatalf("InPlaceBufLen() = %d, want 8", shrink.InPlaceBufLen())
	}
	buf2 := []byte("xxxxtail")
	if err := shrink.ApplyInPlace(buf2); err != nil {
		t.Fatal(err)
	}
	if string(buf2[:4]) != "tail" {
		t.Fatalf("shrink result = %q", buf2[:4])
	}
}

func TestApplyInPlaceScratchTooSmall(t *testing.T) {
	d := &Delta{RefLen: 8, VersionLen: 8}
	if err := d.ApplyInPlace(make([]byte, 7)); !errors.Is(err, ErrScratchTooSmall) {
		t.Fatalf("error = %v, want ErrScratchTooSmall", err)
	}
}

func TestApplyInPlaceRejectsInvalidCommand(t *testing.T) {
	d := &Delta{RefLen: 4, VersionLen: 4, Commands: []Command{NewCopy(0, 0, 5)}}
	err := d.ApplyInPlace(make([]byte, 4))
	if err == nil {
		t.Fatal("ApplyInPlace accepted out-of-bounds copy")
	}
}

func TestApplyInPlaceCorruptsOnConflict(t *testing.T) {
	// The swap delta violates Equation 2; applying it in place must give a
	// result that differs from the true version — this is exactly the
	// corruption scenario from the paper's introduction.
	d := buildSwap()
	ref := []byte("AAAABBBB")
	want, err := d.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), ref...)
	if err := d.ApplyInPlace(buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, want) {
		t.Fatal("conflicting delta applied in place should corrupt the output")
	}
	// Specifically, both halves end up with the old second half.
	if string(buf) != "BBBBBBBB" {
		t.Fatalf("corrupted result = %q, want BBBBBBBB", buf)
	}
}

func TestDirectionalSelfOverlapCopies(t *testing.T) {
	// A single copy whose read and write intervals overlap must be applied
	// directionally (§4.1). Exercise both directions and several buffer
	// granularities, including 1 byte.
	for _, bufSize := range []int{1, 2, 3, 4096} {
		// f > t: shift left.
		left := &Delta{
			RefLen:     8,
			VersionLen: 6,
			Commands:   []Command{NewCopy(2, 0, 6)},
		}
		buf := []byte("01234567")
		if err := left.ApplyInPlaceBuf(buf, bufSize); err != nil {
			t.Fatal(err)
		}
		if string(buf[:6]) != "234567" {
			t.Fatalf("bufSize %d: shift left = %q", bufSize, buf[:6])
		}

		// f < t: shift right.
		right := &Delta{
			RefLen:     8,
			VersionLen: 8,
			Commands: []Command{
				NewCopy(0, 2, 6),
				NewAdd(0, []byte("XY")),
			},
		}
		buf = []byte("01234567")
		if err := right.ApplyInPlaceBuf(buf, bufSize); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "XY012345" {
			t.Fatalf("bufSize %d: shift right = %q", bufSize, buf)
		}
	}
}

func TestApplyInPlaceBufRejectsBadSize(t *testing.T) {
	d := &Delta{RefLen: 1, VersionLen: 1, Commands: []Command{NewCopy(0, 0, 1)}}
	if err := d.ApplyInPlaceBuf(make([]byte, 1), 0); err == nil {
		t.Fatal("accepted zero buffer size")
	}
}
