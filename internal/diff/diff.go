// Package diff implements binary differencing algorithms that produce the
// delta files consumed by the in-place converter.
//
// The principal algorithms mirror the lineage the paper builds on:
//
//   - Linear: a linear-time, constant-space, one-pass differencer in the
//     family of Burns & Long (IPCCC '97) and Ajtai et al. — the algorithm
//     the paper used to generate its input deltas. Reference seeds are
//     fingerprinted with a Karp–Rabin rolling hash into a fixed-size table;
//     the version is scanned once, extending verified seed matches forward
//     and backward.
//   - Greedy: a byte-granular greedy matcher with chained hash buckets in
//     the style of Reichenberger, kept as the classical baseline. It finds
//     longer matches at higher cost (quadratic in the worst case).
//
// Both emit commands in contiguous write order covering the version file
// exactly, which Validate enforces and the codec's ordered formats require.
package diff

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ipdelta/internal/delta"
)

// Algorithm is a differencing algorithm turning (reference, version) pairs
// into delta files.
type Algorithm interface {
	// Name identifies the algorithm in reports and CLI flags.
	Name() string
	// Diff computes a delta that materializes version from ref.
	Diff(ref, version []byte) (*delta.Delta, error)
}

// ByName resolves an algorithm identifier as used by CLI flags.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "linear":
		return NewLinear(), nil
	case "greedy":
		return NewGreedy(), nil
	case "blockwise":
		return NewBlockwise(), nil
	case "suffix":
		return NewSuffix(), nil
	case "correcting":
		return NewCorrecting(nil), nil
	case "null":
		return Null{}, nil
	default:
		return nil, fmt.Errorf("unknown differencing algorithm %q", name)
	}
}

// Null is the no-compression baseline: the whole version as one add. It
// anchors transmission-time comparisons (sending the raw new version).
type Null struct{}

// Name implements Algorithm.
func (Null) Name() string { return "null" }

// Diff implements Algorithm.
func (Null) Diff(ref, version []byte) (*delta.Delta, error) {
	d := &delta.Delta{RefLen: int64(len(ref)), VersionLen: int64(len(version))}
	if len(version) > 0 {
		data := make([]byte, len(version))
		copy(data, version)
		d.Commands = []delta.Command{delta.NewAdd(0, data)}
	}
	return d, nil
}

// emitter accumulates commands in write order, buffering literal bytes and
// flushing them as a single add before each copy.
//
// Literal bytes from every add are appended to one arena (lits); until
// finish, an add command carries the run's arena offset in its From field
// and a nil Data. finish resolves the offsets into sub-slices of a single
// data allocation — one allocation for all literal data, where the old
// emitter allocated per add — and an emitter can be reset and reused, so a
// pooled differencer emits with no steady-state allocations at all.
type emitter struct {
	cmds     []delta.Command
	lits     []byte // literal arena: every add's data, concatenated
	litStart int64  // arena offset where the pending run begins
	at       int64  // write offset of the next emitted byte
}

// reset empties the emitter for a fresh diff, retaining backing capacity.
//
//ipvet:allocfree
func (e *emitter) reset() {
	e.cmds = e.cmds[:0]
	e.lits = e.lits[:0]
	e.litStart = 0
	e.at = 0
}

// literal appends version bytes that found no match.
//
//ipvet:allocfree
func (e *emitter) literal(b []byte) {
	e.lits = append(e.lits, b...)
}

// flushAdd records the pending literal run as one add command. The command
// holds the run's arena offset in From until finish materializes it.
//
//ipvet:allocfree
func (e *emitter) flushAdd() {
	run := int64(len(e.lits)) - e.litStart
	if run == 0 {
		return
	}
	e.cmds = append(e.cmds, delta.Command{Op: delta.OpAdd, From: e.litStart, To: e.at, Length: run})
	e.at += run
	e.litStart = int64(len(e.lits))
}

// copyCmd emits a copy of length l from reference offset from.
//
//ipvet:allocfree
func (e *emitter) copyCmd(from int64, l int64) {
	e.flushAdd()
	e.cmds = append(e.cmds, delta.NewCopy(from, e.at, l))
	e.at += l
}

// commands flushes trailing literals and resolves every add's arena
// offset into its Data, in place. The result aliases the emitter's
// command list and arena, so it is valid until the emitter is reset; call
// it once per diff.
//
//ipvet:allocfree
func (e *emitter) commands() []delta.Command {
	e.flushAdd()
	resolveAdds(e.cmds, e.lits)
	return e.cmds
}

// finish returns the emitter's commands detached from it, so the result
// stays valid after the emitter is reset or pooled.
func (e *emitter) finish() []delta.Command {
	return detach(e.commands(), len(e.lits))
}

// detach copies cmds into fresh memory: one command slice, and one arena
// of nlits bytes (the sum of the add lengths) that every add's data is a
// capacity-bounded sub-slice of, in command order.
func detach(cmds []delta.Command, nlits int) []delta.Command {
	out := make([]delta.Command, len(cmds))
	copy(out, cmds)
	arena := make([]byte, 0, nlits)
	for k := range out {
		if out[k].Op != delta.OpAdd {
			continue
		}
		at := len(arena)
		arena = append(arena, out[k].Data...)
		out[k].Data = arena[at:len(arena):len(arena)]
	}
	return out
}

// resolveAdds rewrites each add's stashed arena offset (in From) into a
// capacity-bounded sub-slice of the arena.
//
//ipvet:allocfree
func resolveAdds(cmds []delta.Command, arena []byte) {
	for k := range cmds {
		if cmds[k].Op != delta.OpAdd {
			continue
		}
		off, end := cmds[k].From, cmds[k].From+cmds[k].Length
		cmds[k].From = 0
		cmds[k].Data = arena[off:end:end]
	}
}

// matchForward returns the length of the common prefix of ref[r:] and
// version[v:]. It compares eight bytes at a time: the first differing
// byte of two little-endian words is the lowest set byte of their XOR.
//
//ipvet:allocfree
func matchForward(ref, version []byte, r, v int) int {
	a, b := ref[r:], version[v:]
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// matchBackward returns how many bytes before ref[r] and version[v] agree,
// looking back at most maxBack bytes. Like matchForward it compares
// words; walking backwards, the first difference is the highest set byte
// of the XOR.
//
//ipvet:allocfree
func matchBackward(ref, version []byte, r, v, maxBack int) int {
	lim := min(maxBack, r, v)
	if lim <= 0 {
		return 0
	}
	a, b := ref[r-lim:r], version[v-lim:v]
	n := 0
	for ; n+8 <= lim; n += 8 {
		if x := binary.LittleEndian.Uint64(a[lim-n-8:]) ^ binary.LittleEndian.Uint64(b[lim-n-8:]); x != 0 {
			return n + bits.LeadingZeros64(x)/8
		}
	}
	for n < lim && a[lim-n-1] == b[lim-n-1] {
		n++
	}
	return n
}
