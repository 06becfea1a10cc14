// Package codec implements binary wire formats for delta files.
//
// Four formats are provided, mirroring the encodings discussed in §7 of the
// paper:
//
//   - FormatOrdered: commands are applied strictly in write order, so write
//     offsets are implicit — an add is ⟨l⟩ and a copy ⟨f,l⟩. This is the
//     most compact encoding but cannot express the permuted command order
//     in-place reconstruction requires.
//   - FormatOffsets: every command carries an explicit write offset — an
//     add is ⟨t,l⟩ and a copy ⟨f,t,l⟩. Commands may appear in any order,
//     which makes the format in-place capable, at the encoding overhead the
//     paper measures as ~1.9% of compression.
//   - FormatLegacyOrdered / FormatLegacyOffsets: the fixed-width codewords
//     the paper adopted from the classic differencing literature [11, 1],
//     notably a single-byte add length (long adds are split). These exist
//     to reproduce the paper's observation that such codewords are poorly
//     suited to in-place reconstruction.
//   - FormatCompact: the codeword redesign the paper suggests as future
//     work — copies encode the from-offset as a signed displacement from
//     the write offset and the trailing add section delta-encodes its
//     write offsets.
//
// All variable-width formats use unsigned varints (encoding/binary). Every
// file starts with a fixed header (magic, format, file lengths) and ends
// with an IEEE CRC32 of everything before it.
package codec

import (
	"errors"
	"fmt"
	"math/bits"
)

// Format identifies a delta wire format.
type Format byte

const (
	// FormatOrdered is the write-order format without write offsets.
	FormatOrdered Format = iota + 1
	// FormatOffsets is the explicit-write-offset, in-place capable format.
	FormatOffsets
	// FormatLegacyOrdered is the classic byte-granular codeword format in
	// write order.
	FormatLegacyOrdered
	// FormatLegacyOffsets is the classic codeword format with write offsets.
	FormatLegacyOffsets
	// FormatCompact is the redesigned in-place capable format.
	FormatCompact
	// FormatScratch extends the offsets format with stash/unstash commands
	// and a header field declaring the scratch bytes required — the
	// bounded-scratch reconstruction extension.
	FormatScratch
)

// String returns the format name used by CLI flags and reports.
func (f Format) String() string {
	switch f {
	case FormatOrdered:
		return "ordered"
	case FormatOffsets:
		return "offsets"
	case FormatLegacyOrdered:
		return "legacy-ordered"
	case FormatLegacyOffsets:
		return "legacy-offsets"
	case FormatCompact:
		return "compact"
	case FormatScratch:
		return "scratch"
	default:
		return fmt.Sprintf("format(%d)", byte(f))
	}
}

// ParseFormat resolves a format name as printed by Format.String.
func ParseFormat(s string) (Format, error) {
	for _, f := range []Format{FormatOrdered, FormatOffsets, FormatLegacyOrdered, FormatLegacyOffsets, FormatCompact, FormatScratch} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown delta format %q", s)
}

// InPlaceCapable reports whether the format can express commands in an
// arbitrary application order, a prerequisite for carrying an in-place
// reconstructible delta.
func (f Format) InPlaceCapable() bool {
	switch f {
	case FormatOffsets, FormatLegacyOffsets, FormatCompact, FormatScratch:
		return true
	default:
		return false
	}
}

// Wire format framing.
var magic = [4]byte{'I', 'P', 'D', 1}

// Errors returned while decoding.
var (
	ErrBadMagic    = errors.New("not a delta file (bad magic)")
	ErrBadFormat   = errors.New("unknown format byte")
	ErrChecksum    = errors.New("checksum mismatch")
	ErrTruncated   = errors.New("truncated delta file")
	ErrNotOrdered  = errors.New("commands not in contiguous write order")
	ErrHugeCommand = errors.New("command length exceeds file bounds")
)

// UvarintLen returns the number of bytes binary.PutUvarint uses for v.
// It is the |f| term of the paper's cost function cost(v) = l − |f|.
//
//ipvet:allocfree
func UvarintLen(v uint64) int {
	// Seven payload bits per byte; v|1 gives zero a one-byte length.
	return (bits.Len64(v|1) + 6) / 7
}

// VarintLen returns the encoded size of v as a zig-zag signed varint.
//
//ipvet:allocfree
func VarintLen(v int64) int {
	return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) // zig-zag, as binary.PutVarint
}
