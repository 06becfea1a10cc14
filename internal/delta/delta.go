// Package delta defines the command model for delta compressed files and
// the engines that reconstruct a version from a reference file.
//
// A delta file is an ordered sequence of commands that materialize a new
// version of a file given a reference (old) version:
//
//   - a copy command ⟨f, t, l⟩ copies the bytes [f, f+l-1] of the reference
//     file to [t, t+l-1] of the version file;
//   - an add command ⟨t, l⟩ followed by l bytes of data writes those bytes
//     to [t, t+l-1] of the version file.
//
// The write intervals of the commands in a well-formed delta are disjoint
// and together cover the version file exactly, so any application order
// materializes the same version — provided reads precede conflicting
// writes. Package inplace rearranges commands so that a delta may be
// applied in the very buffer holding the reference (see the paper, §4).
package delta

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"ipdelta/internal/interval"
)

// Op identifies the kind of a delta command.
type Op byte

const (
	// OpCopy copies bytes from the reference file into the version file.
	OpCopy Op = iota + 1
	// OpAdd writes literal bytes carried in the delta into the version file.
	OpAdd
)

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	switch o {
	case OpCopy:
		return "copy"
	case OpAdd:
		return "add"
	case OpStash:
		return "stash"
	case OpUnstash:
		return "unstash"
	default:
		return fmt.Sprintf("op(%d)", byte(o))
	}
}

// Command is one directive of a delta file. For OpCopy, From/To/Length are
// the ⟨f, t, l⟩ triple of the paper and Data is nil. For OpAdd, To is the
// write offset, Data holds the added bytes, and Length == len(Data); From
// is unused.
type Command struct {
	Op     Op
	From   int64
	To     int64
	Length int64
	Data   []byte
}

// NewCopy returns a copy command ⟨from, to, length⟩.
//
//ipvet:allocfree
func NewCopy(from, to, length int64) Command {
	return Command{Op: OpCopy, From: from, To: to, Length: length}
}

// NewAdd returns an add command writing data at offset to. The data slice
// is used directly; callers must not alias it afterwards.
//
//ipvet:allocfree
func NewAdd(to int64, data []byte) Command {
	return Command{Op: OpAdd, To: to, Length: int64(len(data)), Data: data}
}

// WriteInterval returns [t, t+l-1], the version-file bytes the command
// writes. Stash commands write only to scratch, so their write interval is
// empty.
func (c Command) WriteInterval() interval.Interval {
	if c.Op == OpStash {
		return interval.Interval{Lo: 0, Hi: -1}
	}
	return interval.FromRange(c.To, c.Length)
}

// ReadInterval returns [f, f+l-1] for commands that read the buffer (copy
// and stash); add and unstash commands read nothing from it.
func (c Command) ReadInterval() interval.Interval {
	return stashReadInterval(c)
}

// String renders the command in the paper's notation.
func (c Command) String() string {
	switch c.Op {
	case OpCopy:
		return fmt.Sprintf("copy⟨%d,%d,%d⟩", c.From, c.To, c.Length)
	case OpAdd:
		return fmt.Sprintf("add⟨%d,%d⟩", c.To, c.Length)
	case OpStash:
		return fmt.Sprintf("stash⟨%d,%d⟩", c.From, c.Length)
	case OpUnstash:
		return fmt.Sprintf("unstash⟨%d,%d⟩", c.To, c.Length)
	default:
		return fmt.Sprintf("%s⟨%d,%d,%d⟩", c.Op, c.From, c.To, c.Length)
	}
}

// Equal reports whether two commands are identical, comparing add data
// byte-wise.
func (c Command) Equal(o Command) bool {
	if c.Op != o.Op || c.From != o.From || c.To != o.To || c.Length != o.Length {
		return false
	}
	return bytes.Equal(c.Data, o.Data)
}

// Delta is a parsed delta file: an ordered command sequence together with
// the sizes of the files it relates.
type Delta struct {
	// RefLen is the length of the reference (old) file version.
	RefLen int64
	// VersionLen is the length of the version (new) file the delta encodes.
	VersionLen int64
	// Commands is the ordered command sequence. Order matters for in-place
	// application.
	Commands []Command
}

// Clone returns a deep copy of the delta; mutating the clone (including add
// data) does not affect the original.
func (d *Delta) Clone() *Delta {
	out := &Delta{
		RefLen:     d.RefLen,
		VersionLen: d.VersionLen,
		Commands:   make([]Command, len(d.Commands)),
	}
	copy(out.Commands, d.Commands)
	for k := range out.Commands {
		if out.Commands[k].Data != nil {
			data := make([]byte, len(out.Commands[k].Data))
			copy(data, out.Commands[k].Data)
			out.Commands[k].Data = data
		}
	}
	return out
}

// NumCopies returns the number of copy commands in the delta.
func (d *Delta) NumCopies() int { return d.count(OpCopy) }

// NumAdds returns the number of add commands in the delta. Stash and
// unstash commands are neither copies nor adds.
func (d *Delta) NumAdds() int { return d.count(OpAdd) }

func (d *Delta) count(op Op) int {
	n := 0
	for _, c := range d.Commands {
		if c.Op == op {
			n++
		}
	}
	return n
}

// AddedBytes returns the total number of literal bytes carried by add
// commands — the incompressible part of the delta.
func (d *Delta) AddedBytes() int64 {
	var n int64
	for _, c := range d.Commands {
		if c.Op == OpAdd {
			n += c.Length
		}
	}
	return n
}

// CopiedBytes returns the total number of version bytes encoded by copy
// commands.
func (d *Delta) CopiedBytes() int64 {
	var n int64
	for _, c := range d.Commands {
		if c.Op == OpCopy {
			n += c.Length
		}
	}
	return n
}

// Validation errors. ValidationError wraps one of these sentinel causes
// with command context.
var (
	ErrBadOp          = errors.New("unknown opcode")
	ErrNegativeOffset = errors.New("negative offset")
	ErrZeroLength     = errors.New("zero or negative length")
	ErrReadOOB        = errors.New("copy reads outside reference file")
	ErrWriteOOB       = errors.New("command writes outside version file")
	ErrOverlap        = errors.New("write intervals overlap")
	ErrCoverage       = errors.New("commands do not cover the version file")
	ErrAddLength      = errors.New("add length disagrees with data")
	ErrFileLength     = errors.New("negative file length")
)

// ValidationError reports which command of a delta violated which rule.
type ValidationError struct {
	Index int     // position in Delta.Commands, -1 for whole-delta errors
	Cmd   Command // offending command (zero for whole-delta errors)
	Cause error   // one of the sentinel errors above
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("delta invalid: %v", e.Cause)
	}
	return fmt.Sprintf("delta command %d (%s) invalid: %v", e.Index, e.Cmd, e.Cause)
}

// Unwrap exposes the sentinel cause for errors.Is.
func (e *ValidationError) Unwrap() error { return e.Cause }

// Validate checks that the delta is well formed: every command has a valid
// opcode, positive length, in-bounds read and write intervals, add data
// lengths agree, the write intervals are pairwise disjoint, and together
// they cover [0, VersionLen-1] exactly. It runs on a Validator drawn
// from a process-wide pool, so a steady stream of validations (every
// encode validates) reuses the span buffers instead of allocating them.
func (d *Delta) Validate() error {
	v := validators.Get().(*Validator)
	err := v.Validate(d)
	validators.Put(v)
	return err
}

// validators pools idle Validators for (*Delta).Validate.
var validators = sync.Pool{New: func() any { return new(Validator) }}

// Validator runs delta validation over reusable scratch, so a steady-state
// pipeline (one converter validating every incoming delta) performs no
// per-call allocations. The zero value is ready for use; a Validator must
// not be used concurrently. Validate on a Validator checks exactly what
// (*Delta).Validate checks and reports the same error.
//
// The write intervals are collected as spans and checked to tile
// [0, VersionLen) in start order. Spans that arrive out of order (an
// in-place delta lists its copies in dependency order) are put in order by
// a stable radix sort on their start into the validator's second buffer:
// one linear pass per byte of the largest start, at most eight, and no
// comparisons.
type Validator struct {
	spans, tmp, prefix []writeSpan
}

// writeSpan is one command's write interval [lo, hi) and its position.
type writeSpan struct {
	lo, hi int64
	index  int
}

// Validate implements (*Delta).Validate over the validator's scratch.
func (v *Validator) Validate(d *Delta) error {
	// The first error in command order wins: a command that fails its own
	// checks is reported unless an earlier command's write already
	// overlapped a write before it.
	bad := len(d.Commands)
	var badErr error
	if n := len(d.Commands); cap(v.spans) < n {
		// One allocation holds the spans and the radix sort's buffer.
		buf := make([]writeSpan, 2*n)
		v.spans, v.tmp = buf[:0:n], buf[n:]
	}
	v.spans = v.spans[:0]
	for k, c := range d.Commands {
		if err := d.validateCommand(c); err != nil {
			bad, badErr = k, err
			break
		}
		if c.Op != OpStash { // stash writes only to scratch
			v.spans = append(v.spans, writeSpan{lo: c.To, hi: c.To + c.Length, index: k})
		}
	}
	v.sortSpans()
	if !disjoint(v.spans) {
		k := v.firstOverlap()
		return &ValidationError{Index: k, Cmd: d.Commands[k], Cause: ErrOverlap}
	}
	if badErr != nil {
		return &ValidationError{Index: bad, Cmd: d.Commands[bad], Cause: badErr}
	}
	// Disjoint, in-bounds spans cover [0, VersionLen) exactly when they
	// abut end to end from 0.
	var at int64
	for _, sp := range v.spans {
		if sp.lo != at {
			return &ValidationError{Index: -1, Cause: ErrCoverage}
		}
		at = sp.hi
	}
	if at != d.VersionLen {
		return &ValidationError{Index: -1, Cause: ErrCoverage}
	}
	return d.validateScratch()
}

// sortSpans orders the spans by start, unless they already are, with a
// stable LSD radix sort: one counting pass per 8-bit digit, for as many
// digits as the largest start has. Starts are never negative, since every
// span's command passed validateCommand.
func (v *Validator) sortSpans() {
	spans := v.spans
	var bits int64 // the union of the starts' bits
	sorted := true
	for i, sp := range spans {
		if i > 0 && sp.lo < spans[i-1].lo {
			sorted = false
		}
		bits |= sp.lo
	}
	if sorted {
		return
	}
	src, dst := spans, v.tmp[:len(spans)]
	for shift := 0; bits>>shift != 0; shift += 8 {
		var at [256]int
		for _, sp := range src {
			at[sp.lo>>shift&0xff]++
		}
		next := 0
		for digit, k := range at {
			at[digit], next = next, next+k
		}
		for _, sp := range src {
			digit := sp.lo >> shift & 0xff
			dst[at[digit]] = sp
			at[digit]++
		}
		src, dst = dst, src
	}
	if &src[0] != &spans[0] {
		copy(spans, src)
	}
}

// disjoint reports whether start-sorted spans are pairwise disjoint: with
// no overlap so far, the furthest end is the previous span's.
func disjoint(spans []writeSpan) bool {
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return false
		}
	}
	return true
}

// firstOverlap returns the smallest command index k whose write overlaps
// the write of some command before it — the command an in-order check
// reports. Whether commands [0, k] overlap is monotone in k, so a binary
// search over prefixes, each filtered from the sorted spans and so already
// in start order, finds it in O(n log n); it runs only on the error path.
func (v *Validator) firstOverlap() int {
	overlaps := func(k int) bool {
		v.prefix = v.prefix[:0]
		for _, sp := range v.spans {
			if sp.index <= k {
				v.prefix = append(v.prefix, sp)
			}
		}
		return !disjoint(v.prefix)
	}
	lo, hi := 0, 0
	for _, sp := range v.spans {
		hi = max(hi, sp.index)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if overlaps(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (d *Delta) validateCommand(c Command) error {
	switch c.Op {
	case OpCopy, OpStash, OpUnstash:
		if c.Data != nil {
			return ErrAddLength
		}
	case OpAdd:
		if int64(len(c.Data)) != c.Length {
			return ErrAddLength
		}
	default:
		return ErrBadOp
	}
	if d.RefLen < 0 || d.VersionLen < 0 {
		return ErrFileLength
	}
	if c.From < 0 || c.To < 0 {
		return ErrNegativeOffset
	}
	if c.Length <= 0 {
		return ErrZeroLength
	}
	// Bounds checks use the subtraction form: From+Length can wrap negative
	// for hostile 63-bit values and slip past an additive comparison, while
	// limit-Length cannot overflow once lengths are known non-negative.
	if (c.Op == OpCopy || c.Op == OpStash) && c.From > d.RefLen-c.Length {
		return ErrReadOOB
	}
	if c.Op != OpStash && c.To > d.VersionLen-c.Length {
		return ErrWriteOOB
	}
	return nil
}

// Apply materializes the version file in fresh scratch space, the
// traditional reconstruction that requires both file copies to be resident.
// It does not require any particular command order.
func (d *Delta) Apply(ref []byte) ([]byte, error) {
	if int64(len(ref)) != d.RefLen {
		return nil, fmt.Errorf("reference length %d, delta expects %d", len(ref), d.RefLen)
	}
	out := make([]byte, d.VersionLen)
	var scratch scratchState
	for k, c := range d.Commands {
		if err := d.validateCommand(c); err != nil {
			return nil, &ValidationError{Index: k, Cmd: c, Cause: err}
		}
		switch c.Op {
		case OpCopy:
			copy(out[c.To:c.To+c.Length], ref[c.From:c.From+c.Length])
		case OpAdd:
			copy(out[c.To:c.To+c.Length], c.Data)
		case OpStash:
			scratch.stash(ref[c.From : c.From+c.Length])
		case OpUnstash:
			data, err := scratch.unstash(c.Length)
			if err != nil {
				return nil, &ValidationError{Index: k, Cmd: c, Cause: err}
			}
			copy(out[c.To:c.To+c.Length], data)
		}
	}
	return out, nil
}

// WRConflicts returns the pairs (i, j), i < j, of copy commands in
// application order where command i writes into the interval command j
// reads — the write-before-read conflicts of Equation 1 that make a serial
// in-place application incorrect.
func (d *Delta) WRConflicts() [][2]int {
	var conflicts [][2]int
	for i := 0; i < len(d.Commands); i++ {
		wi := d.Commands[i].WriteInterval()
		for j := i + 1; j < len(d.Commands); j++ {
			if wi.Overlaps(d.Commands[j].ReadInterval()) {
				conflicts = append(conflicts, [2]int{i, j})
			}
		}
	}
	return conflicts
}

// CheckInPlace verifies Equation 2 of the paper: for every command j, its
// read interval is disjoint from the union of the write intervals of all
// commands i < j. A delta satisfying this property reconstructs correctly
// when applied serially in the space of the reference file. It returns nil
// on success and a ConflictError naming the first violation otherwise.
func (d *Delta) CheckInPlace() error {
	written := interval.NewSet()
	for j, c := range d.Commands {
		if written.Overlaps(c.ReadInterval()) {
			return &ConflictError{Index: j, Cmd: c}
		}
		written.Add(c.WriteInterval())
	}
	return nil
}

// ConflictError reports a write-before-read conflict found by CheckInPlace.
type ConflictError struct {
	Index int
	Cmd   Command
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("command %d (%s) reads an interval already written", e.Index, e.Cmd)
}
