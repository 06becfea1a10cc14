// Package inplace implements the paper's core contribution: converting an
// arbitrary delta file into one that reconstructs the new version in the
// storage the old version occupies, with no scratch space.
//
// The conversion (§4 of the paper):
//
//  1. Partition the delta's commands into copies C and adds A.
//  2. Sort the copies by increasing write offset.
//  3. Build the CRWI digraph: one vertex per copy, an edge v_i→v_j whenever
//     copy i's read interval intersects copy j's write interval — meaning
//     i must execute before j to avoid a write-before-read conflict.
//  4. Topologically sort the digraph; each cycle encountered is broken by
//     deleting one vertex chosen by a policy (constant-time or
//     locally-minimum), whose copy command is re-encoded as an add.
//  5. Emit the surviving copies in topological order, then every add.
//
// The result satisfies Equation 2 — no command reads a byte any earlier
// command wrote — so a serial, in-place application is correct.
//
// By default (StrategySplit) the converter goes one step beyond the
// paper: copies entangled in cycles are cut at conflict boundaries so a
// broken cycle costs a piece of a copy, not all of it (see split.go).
// WithStrategy(StrategyDFS) runs the paper's algorithm unchanged.
package inplace

import (
	"io"
	"sort"
	"sync"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/graph"
	"ipdelta/internal/obs"
)

// Stats describes one conversion, exposing the quantities the paper's
// evaluation reports.
type Stats struct {
	// Copies and Adds count the input partition.
	Copies int
	Adds   int
	// Edges is the number of potential-WR-conflict edges in the CRWI
	// digraph; by Lemma 1 it never exceeds the version length.
	Edges int
	// CyclesBroken counts cycles the topological sort had to break.
	CyclesBroken int
	// CycleVertices sums the lengths of those cycles (the extra work the
	// locally-minimum policy performs).
	CycleVertices int
	// ConvertedCopies counts copy commands re-encoded as adds.
	ConvertedCopies int
	// StashedCopies counts copies preserved via the bounded-scratch
	// extension instead of being converted to adds.
	StashedCopies int
	// ScratchUsed is the scratch bytes the output delta requires.
	ScratchUsed int64
	// ConvertedBytes is the literal data those conversions moved into the
	// delta — the paper's compression loss from breaking cycles.
	ConvertedBytes int64
	// RemovedCost sums the cost function l − |f| over converted copies.
	RemovedCost int64
	// SplitComponents counts the cyclic components of the CRWI digraph
	// emitted with conflict-boundary splitting (StrategySplit) instead of
	// the paper's whole-copy resolution.
	SplitComponents int
	// Policy is the cycle-breaking policy used.
	Policy string
}

// Strategy selects how cycles are found and broken.
type Strategy int

const (
	// StrategyDFS is the paper's algorithm: cycles are broken one at a
	// time as the topological sort's depth-first search closes them, with
	// the victim chosen by the configured policy, and every victim's whole
	// copy is converted to an add.
	StrategyDFS Strategy = iota + 1
	// StrategySplit, the default, extends StrategyDFS beyond the paper:
	// every copy of a cyclic strongly connected component is cut at the
	// write boundaries of the same-component copies its read interval
	// meets (no piece shorter than 32 bytes), and the policy sort breaks
	// the pieces' cycles, so a cycle costs the piece that closes it rather
	// than a whole copy. A component keeps the split resolution only when
	// it encodes smaller than the paper's resolution of it, and the delta
	// as a whole only when it encodes smaller than StrategyDFS's, so the
	// result is never larger; with no component re-resolved it is
	// byte-identical to StrategyDFS.
	StrategySplit
)

// Options configures a conversion.
type Options struct {
	policy   graph.Policy
	strategy Strategy
	scratch  int64
	obs      *obs.Registry
}

// Option customizes Convert.
type Option func(*Options)

// WithPolicy selects the cycle-breaking policy for StrategyDFS and
// StrategySplit. The default is the locally-minimum policy, which the
// paper finds superior on every metric.
func WithPolicy(p graph.Policy) Option {
	return func(o *Options) { o.policy = p }
}

// WithStrategy selects the cycle-breaking strategy (default
// StrategySplit). StrategyDFS reproduces the paper's algorithm exactly.
func WithStrategy(s Strategy) Option {
	return func(o *Options) { o.strategy = s }
}

// WithScratchBudget allows the output delta to use up to n bytes of device
// scratch memory (the bounded-scratch extension): copies that cycle
// breaking would convert to adds are instead stashed at the start of the
// delta and unstashed into place at the end, preserving compression at a
// bounded memory cost. A zero budget (the default) is the paper's pure
// in-place model. Deltas that use scratch must travel in
// codec.FormatScratch.
func WithScratchBudget(n int64) Option {
	return func(o *Options) {
		if n < 0 {
			n = 0
		}
		o.scratch = n
	}
}

// WithObserver attaches a metrics registry: every conversion then
// records per-stage timings (partition+sort, CRWI build, topological
// sort and split, emit) and structural counters (edges, cycles broken per
// policy, converted copies and bytes) into it. Handles are resolved once
// per Converter, so an attached observer adds no allocations to the
// steady-state convert path. A nil registry is accepted and means
// unobserved.
func WithObserver(r *obs.Registry) Option {
	return func(o *Options) { o.obs = r }
}

// RefReader is a reference file read by byte range. Conversion reads the
// reference at one step only: when cycle breaking turns a copy into an
// add, the copied bytes become its literal data (§4, step 4). A
// conversion through a RefReader reads exactly those ranges, so a
// reference that is expensive to materialize — a chunked store's recipe,
// a file on disk — is read no further than the converted copies reach.
// *bytes.Reader and *io.SectionReader satisfy it.
type RefReader interface {
	io.ReaderAt
	// Size is the reference length; it must equal the delta's RefLen.
	Size() int64
}

// Convert rewrites d into an in-place reconstructible delta. The reference
// file is needed to materialize the data of copy commands that cycle
// breaking converts to adds. The input delta is not modified; the output
// shares add data slices with the input.
//
// The returned delta applies correctly both with scratch space (Apply) and
// in place (ApplyInPlace), and always satisfies CheckInPlace.
//
// Convert runs on a Converter drawn from a process-wide pool, so callers
// that convert one delta at a time (a store building a release on demand)
// reuse working memory too; unlike Converter.Convert, its output is
// freshly allocated and caller-owned, so it may be retained indefinitely.
// A caller that only encodes the result and drops it is better served by
// its own pooled Converter and Reset.
func Convert(d *delta.Delta, ref []byte, opts ...Option) (*delta.Delta, *Stats, error) {
	cv := converters.Get().(*Converter)
	cv.bref.Reset(ref)
	return cv.convertPooled(d, &cv.bref, opts)
}

// ConvertAt is Convert against a reference read by byte range: it reads
// only the bytes of the copies it converts, and none at all when it
// converts none.
func ConvertAt(d *delta.Delta, ref RefReader, opts ...Option) (*delta.Delta, *Stats, error) {
	return converters.Get().(*Converter).convertPooled(d, ref, opts)
}

// convertPooled configures cv, drawn from the pool, with opts, runs a
// detached conversion, and returns cv to the pool.
func (cv *Converter) convertPooled(d *delta.Delta, ref RefReader, opts []Option) (*delta.Delta, *Stats, error) {
	cv.configure(opts)
	out, st, err := cv.convert(d, ref, true)
	cv.Reset()
	cv.configure(nil) // pin no observer
	converters.Put(cv)
	return out, st, err
}

// converters holds idle Converters for Convert.
var converters = sync.Pool{New: func() any { return new(Converter) }}

// buildCRWI constructs the conflicting-read-write-interval digraph over
// copies, which must be sorted by write offset. An edge i→j is added when
// copy i's read interval [f_i, f_i+l_i-1] intersects copy j's write
// interval [t_j, t_j+l_j-1]; performing i before j then avoids the WR
// conflict. Conflicting write intervals are located by binary search over
// the sorted write offsets, giving the O(|C| log |C| + |E|) bound of §4.3.
//
// This is the reference builder: the conversion pipeline uses the
// sweep-line CSR builder (crwiScratch.build), whose edge set is
// property-tested to be identical to this one's.
func buildCRWI(copies []delta.Command) *graph.CSR {
	var edges [][2]int32
	for i := 0; i < len(copies); i++ {
		read := copies[i].ReadInterval()
		// First copy whose write interval ends at or after the read start.
		j := sort.Search(len(copies), func(k int) bool {
			w := copies[k].WriteInterval()
			return w.Hi >= read.Lo
		})
		for ; j < len(copies) && copies[j].To <= read.Hi; j++ {
			if j == i {
				continue // a command never conflicts with itself (§4.1)
			}
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
	}
	return graph.FromEdges(len(copies), edges)
}

// EncodingLoss returns the size difference between encoding d with explicit
// write offsets and the ordered format without them — the inherent encoding
// inefficiency of in-place capable deltas the paper quantifies at ~1.9%.
// The delta must be in contiguous write order.
func EncodingLoss(d *delta.Delta) (ordered, offsets int64, err error) {
	ordered, err = codec.EncodedSize(d, codec.FormatOrdered)
	if err != nil {
		return 0, 0, err
	}
	offsets, err = codec.EncodedSize(d, codec.FormatOffsets)
	if err != nil {
		return 0, 0, err
	}
	return ordered, offsets, nil
}
