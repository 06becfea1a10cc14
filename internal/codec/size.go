package codec

import (
	"fmt"

	"ipdelta/internal/delta"
)

// Size returns the number of bytes Encode would write for d in the
// compact, offsets or scratch format, computed from the command fields
// alone: nothing is written and add data is not read (only Length). It is
// the in-place converter's allocation-free way to compare two candidate
// command lists whose converted adds do not carry their data yet. It
// does not validate d; use EncodedSize for the checked size in any
// format. Other formats return ErrBadFormat.
func Size(d *delta.Delta, f Format) (int64, error) {
	if f != FormatCompact && f != FormatOffsets && f != FormatScratch {
		return 0, ErrBadFormat
	}
	var body, ncmds, copies, scratch, prevEnd int64
	for _, c := range d.Commands {
		if (c.Op == delta.OpStash || c.Op == delta.OpUnstash) && f != FormatScratch {
			return 0, fmt.Errorf("codec: %v commands need the scratch format", c.Op)
		}
		ncmds++
		if f == FormatCompact {
			if c.Op == delta.OpCopy {
				copies++
				body += uvLen(c.To) + uvLen(c.Length) + int64(VarintLen(c.From-c.To))
				continue
			}
			body += int64(VarintLen(c.To-prevEnd)) + uvLen(c.Length) + c.Length
			prevEnd = c.To + c.Length
			continue
		}
		// Offsets and scratch: opcode, ⟨f⟩ for copies and stashes, ⟨t⟩
		// except for stashes, ⟨l⟩, then an add's data.
		body += 1 + uvLen(c.Length)
		if c.Op == delta.OpCopy || c.Op == delta.OpStash {
			body += uvLen(c.From)
		}
		if c.Op != delta.OpStash {
			body += uvLen(c.To)
		}
		switch c.Op {
		case delta.OpAdd:
			body += c.Length
		case delta.OpStash:
			scratch += c.Length
		}
	}
	n := int64(len(magic)) + 1 + uvLen(d.RefLen) + uvLen(d.VersionLen) + uvLen(ncmds) + body + 4
	switch f {
	case FormatScratch:
		n += uvLen(scratch)
	case FormatCompact:
		n += uvLen(copies) + uvLen(ncmds-copies)
	}
	return n, nil
}

// uvLen is UvarintLen for the non-negative int64 fields of a command.
//
//ipvet:allocfree
func uvLen(v int64) int64 { return int64(UvarintLen(uint64(v))) }
