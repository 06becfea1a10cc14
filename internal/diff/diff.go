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
	"fmt"

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
	case "recipe":
		return NewRecipeAlgo(), nil
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

// finish flushes trailing literals and returns a detached command list:
// the commands and one shared data arena are freshly allocated, so the
// result stays valid after the emitter is reset or pooled.
func (e *emitter) finish() []delta.Command {
	e.flushAdd()
	cmds := make([]delta.Command, len(e.cmds))
	copy(cmds, e.cmds)
	arena := make([]byte, len(e.lits))
	copy(arena, e.lits)
	resolveAdds(cmds, arena)
	return cmds
}

// finishReuse flushes trailing literals and returns the emitter's own
// command list, with add data aliasing the emitter's literal arena. The
// result is valid only until the emitter's next reset.
//
//ipvet:allocfree
func (e *emitter) finishReuse() []delta.Command {
	e.flushAdd()
	resolveAdds(e.cmds, e.lits)
	return e.cmds
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
// version[v:].
//
//ipvet:allocfree
func matchForward(ref, version []byte, r, v int) int {
	n := 0
	for r+n < len(ref) && v+n < len(version) && ref[r+n] == version[v+n] {
		n++
	}
	return n
}

// matchForwardN is matchForward capped at max bytes, for extensions that
// must not run past a neighbouring command's range.
//
//ipvet:allocfree
func matchForwardN(ref, version []byte, r, v, max int) int {
	n := 0
	for n < max && r+n < len(ref) && v+n < len(version) && ref[r+n] == version[v+n] {
		n++
	}
	return n
}

// matchBackward returns how many bytes before ref[r] and version[v] agree,
// looking back at most maxBack bytes.
//
//ipvet:allocfree
func matchBackward(ref, version []byte, r, v, maxBack int) int {
	n := 0
	for n < maxBack && r-n-1 >= 0 && v-n-1 >= 0 && ref[r-n-1] == version[v-n-1] {
		n++
	}
	return n
}
