// Package ipdelta is a library for delta compression with in-place
// reconstruction, implementing Burns & Long, "In-Place Reconstruction of
// Delta Compressed Files" (PODC 1998).
//
// A delta file encodes a new version of a file as copy commands (reuse
// bytes of the old version) and add commands (literal new bytes).
// Traditional reconstruction needs both versions resident; this library
// post-processes a delta so it can be applied *in the storage the old
// version occupies* — the right shape for firmware/OTA updates to devices
// without scratch space.
//
// Quick start:
//
//	d, _ := ipdelta.Diff(oldBytes, newBytes)             // compute a delta
//	ip, st, _ := ipdelta.ConvertInPlace(d, oldBytes)     // make it in-place safe
//	buf := make([]byte, ip.InPlaceBufLen())
//	copy(buf, oldBytes)
//	_ = ip.ApplyInPlace(buf)                             // buf now holds newBytes
//
// Wire formats, streaming application, a simulated flash device and a TCP
// software-update protocol are re-exported from the sub-packages below.
package ipdelta

import (
	"io"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
)

// Core model types.
type (
	// Delta is a parsed delta file: ordered commands plus file sizes.
	Delta = delta.Delta
	// Command is one copy or add directive.
	Command = delta.Command
	// Op identifies a command kind.
	Op = delta.Op
	// ConvertStats reports what in-place conversion did (digraph size,
	// cycles broken, copies converted).
	ConvertStats = inplace.Stats
	// Analysis describes a delta's in-place structure without converting
	// it; see Analyze.
	Analysis = inplace.Analysis
	// Format identifies a wire format.
	Format = codec.Format
	// Policy selects which vertex of a cycle to sacrifice.
	Policy = graph.Policy
	// ConvertOption customizes ConvertInPlace and DiffInPlace; see
	// WithPolicy, WithScratchBudget, and WithObserver.
	ConvertOption = inplace.Option
	// Registry collects metrics (counters, gauges, latency histograms)
	// from observed components. It serves Prometheus-style text or JSON
	// over HTTP (it implements http.Handler) and snapshots for tests; see
	// NewRegistry.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time view of a Registry.
	MetricsSnapshot = obs.Snapshot
)

// Command kinds.
const (
	OpCopy = delta.OpCopy
	OpAdd  = delta.OpAdd
	// OpStash and OpUnstash are the bounded-scratch extension commands:
	// stash saves buffer bytes to device scratch before they are
	// overwritten; unstash writes them to their final location.
	OpStash   = delta.OpStash
	OpUnstash = delta.OpUnstash
)

// Wire formats.
const (
	// FormatOrdered is the most compact format; write offsets are implicit
	// so it cannot carry in-place deltas.
	FormatOrdered = codec.FormatOrdered
	// FormatOffsets carries explicit write offsets (in-place capable).
	FormatOffsets = codec.FormatOffsets
	// FormatCompact is the redesigned in-place capable format (the paper's
	// suggested future work); the default for in-place deltas.
	FormatCompact = codec.FormatCompact
	// FormatLegacyOrdered and FormatLegacyOffsets are the classic
	// byte-granular codewords, kept for the paper's encoding comparison.
	FormatLegacyOrdered = codec.FormatLegacyOrdered
	FormatLegacyOffsets = codec.FormatLegacyOffsets
	// FormatScratch carries deltas using the bounded-scratch extension
	// (stash/unstash commands plus a declared scratch requirement).
	FormatScratch = codec.FormatScratch
)

// Cycle-breaking policies (§5 of the paper).
var (
	// ConstantTime deletes the vertex at which each cycle was detected.
	ConstantTime Policy = graph.ConstantTime{}
	// LocallyMinimum deletes the cheapest vertex of each cycle; superior
	// on every metric in the paper's evaluation and the default here.
	LocallyMinimum Policy = graph.LocallyMinimum{}
)

// NewCopy returns a copy command ⟨from, to, length⟩.
func NewCopy(from, to, length int64) Command { return delta.NewCopy(from, to, length) }

// NewAdd returns an add command writing data at offset to.
func NewAdd(to int64, data []byte) Command { return delta.NewAdd(to, data) }

// Diff computes a delta materializing version from ref using the
// linear-time, constant-space differencing algorithm. The returned delta is
// in write order; it is correct for scratch-space application but not, in
// general, safe to apply in place — use ConvertInPlace for that.
func Diff(ref, version []byte) (*Delta, error) {
	return diff.NewLinear().Diff(ref, version)
}

// DiffGreedy computes a delta with the classical greedy matcher: usually a
// slightly smaller delta at a substantially higher cost.
func DiffGreedy(ref, version []byte) (*Delta, error) {
	return diff.NewGreedy().Diff(ref, version)
}

// DiffParallel computes the same delta family as Diff with the reference
// index built and the version scanned across workers goroutines (<= 0 means
// GOMAXPROCS). On multi-core hosts it trades a few percent of compression —
// matches are stitched across segment seams, so the loss is bounded — for
// near-linear diff throughput.
func DiffParallel(ref, version []byte, workers int) (*Delta, error) {
	return diff.NewParallel(workers).Diff(ref, version)
}

// NewRegistry creates an empty metrics registry. Pass it to components
// via WithObserver (and the sub-packages' observer options) and mount it
// on an HTTP mux to expose a /metrics endpoint:
//
//	reg := ipdelta.NewRegistry()
//	ip, st, _ := ipdelta.ConvertInPlace(d, ref, ipdelta.WithObserver(reg))
//	http.Handle("/metrics", reg)
func NewRegistry() *Registry { return obs.NewRegistry() }

// WithPolicy selects the cycle-breaking policy (default LocallyMinimum).
func WithPolicy(p Policy) ConvertOption { return inplace.WithPolicy(p) }

// WithScratchBudget lets the conversion spend up to n bytes of device
// scratch memory to preserve copies that pure in-place conversion would
// turn into adds (the bounded-scratch extension). A result that uses any
// scratch must be encoded in FormatScratch; d.ScratchRequired() reports
// how much it needs.
func WithScratchBudget(n int64) ConvertOption { return inplace.WithScratchBudget(n) }

// WithObserver attaches a metrics registry to the conversion: per-stage
// timings and structural counters (edges, cycles broken per policy,
// converted copies and bytes) are recorded into it. Observation adds no
// allocations to the convert path.
func WithObserver(r *Registry) ConvertOption { return inplace.WithObserver(r) }

// ConvertInPlace rewrites d so a serial application in the space of ref is
// correct (Equation 2 of the paper): copies are permuted by topologically
// sorting the write-before-read conflict digraph, cycles are broken by
// converting copies to adds under the configured policy (default
// locally-minimum), and all adds move to the end. Behavior is customized
// with ConvertOption values: WithPolicy, WithScratchBudget, WithObserver.
func ConvertInPlace(d *Delta, ref []byte, opts ...ConvertOption) (*Delta, *ConvertStats, error) {
	return inplace.Convert(d, ref, opts...)
}

// DiffInPlace is Diff followed by ConvertInPlace; opts apply to the
// conversion.
func DiffInPlace(ref, version []byte, opts ...ConvertOption) (*Delta, *ConvertStats, error) {
	d, err := Diff(ref, version)
	if err != nil {
		return nil, nil, err
	}
	return ConvertInPlace(d, ref, opts...)
}

// Patch materializes the version in fresh memory (requires both copies
// resident, like classic delta tools).
func Patch(ref []byte, d *Delta) ([]byte, error) { return d.Apply(ref) }

// PatchInPlace materializes the version inside buf, which must hold ref in
// its first d.RefLen bytes and be at least d.InPlaceBufLen() long. The
// delta must be in-place safe (d.CheckInPlace() == nil), as produced by
// ConvertInPlace.
func PatchInPlace(buf []byte, d *Delta) error {
	if err := d.CheckInPlace(); err != nil {
		return err
	}
	return d.ApplyInPlace(buf)
}

// Analyze inspects a delta's CRWI structure — conflict edges, cyclic
// components, and conversion bounds — without needing the reference file.
func Analyze(d *Delta) (*Analysis, error) { return inplace.Analyze(d) }

// Compose combines two deltas A→B and B→C into a single delta A→C without
// materializing B. Update servers use this to serve one direct delta
// composed from a chain of per-release deltas; run ConvertInPlace on the
// result before sending it to a device.
func Compose(first, second *Delta) (*Delta, error) { return delta.Compose(first, second) }

// ComposeChain folds Compose over a sequence of deltas.
func ComposeChain(deltas ...*Delta) (*Delta, error) { return delta.ComposeChain(deltas...) }

// Invert computes the reverse delta: given d encoding new from old, and
// old itself, it returns a delta encoding old from new — RCS-style
// backward deltas and device rollbacks.
func Invert(d *Delta, ref []byte) (*Delta, error) { return delta.Invert(d, ref) }

// Encode writes d to w in the given wire format, returning the bytes
// written.
func Encode(w io.Writer, d *Delta, f Format) (int64, error) { return codec.Encode(w, d, f) }

// Decode reads a delta file in any supported format.
func Decode(r io.Reader) (*Delta, Format, error) { return codec.Decode(r) }

// EncodedSize returns the exact encoded size of d in format f.
func EncodedSize(d *Delta, f Format) (int64, error) { return codec.EncodedSize(d, f) }
