package diff

import (
	"bytes"
	"sync"

	"ipdelta/internal/delta"
	"ipdelta/internal/obs"
)

// diffMetrics holds the pre-resolved metric handles of an observed
// differencer (DESIGN.md §9). Resolved once at construction; per-diff
// updates are atomic adds and stage spans only, so an observed Differ
// keeps its zero-allocation steady state.
type diffMetrics struct {
	diffs        *obs.Counter
	refBytes     *obs.Counter
	versionBytes *obs.Counter
	commands     *obs.Counter
	strided      *obs.Counter // table builds that used an anchor stride > 1

	tableStage obs.Stage // match-table (fingerprint index) build
	emitStage  obs.Stage // version scan + command emission
}

// resolveDiffMetrics binds the diff metric set in r.
func resolveDiffMetrics(r *obs.Registry) *diffMetrics {
	return &diffMetrics{
		diffs:        r.Counter("ipdelta_diff_total"),
		refBytes:     r.Counter("ipdelta_diff_ref_bytes_total"),
		versionBytes: r.Counter("ipdelta_diff_version_bytes_total"),
		commands:     r.Counter("ipdelta_diff_commands_total"),
		strided:      r.Counter("ipdelta_diff_strided_builds_total"),
		tableStage:   r.Stage("ipdelta_diff_stage_table_nanos"),
		emitStage:    r.Stage("ipdelta_diff_stage_emit_nanos"),
	}
}

// Linear is the linear-time, constant-space differencer. A fixed-size table
// maps Karp–Rabin fingerprints of reference seeds (p-byte substrings) to
// their first occurrence; the version file is scanned left to right, and a
// fingerprint hit that verifies byte-wise is extended forward as far as the
// files agree and backward into any still-unmatched literal bytes.
//
// Time is O(L_R + L_V); space is the fixed table regardless of input size,
// matching the O(1)-space claim the paper cites for its delta generator.
//
// Diff's working memory (the fingerprint table and the emitter) is pooled
// per instance, so repeated and concurrent calls reuse it instead of
// reallocating the table — at the default 18 table bits, a 1 MiB
// allocation per call. Callers in a single-threaded steady state can do
// better still with a Differ.
type Linear struct {
	seedLen   int
	tableBits uint
	obs       *obs.Registry
	met       *diffMetrics // resolved from obs at construction
	pool      sync.Pool    // of *linearState
}

// LinearOption customizes a Linear differencer.
type LinearOption func(*Linear)

// WithSeedLen sets the seed (minimum match) length; shorter seeds find more
// matches but emit smaller copies. The default is 16; the minimum 4.
func WithSeedLen(p int) LinearOption {
	return func(l *Linear) {
		if p < 4 {
			p = 4
		}
		l.seedLen = p
	}
}

// WithTableBits sets the fingerprint table size to 2^bits entries
// (default 18, i.e. 256Ki entries).
func WithTableBits(bits uint) LinearOption {
	return func(l *Linear) {
		if bits < 8 {
			bits = 8
		}
		if bits > 26 {
			bits = 26
		}
		l.tableBits = bits
	}
}

// WithObserver attaches a metrics registry: every diff then records the
// match-table-build and emit stage timings plus input/output volume
// counters. Handles are resolved here, once, keeping the per-diff path
// allocation-free. A nil registry means unobserved.
func WithObserver(r *obs.Registry) LinearOption {
	return func(l *Linear) { l.obs = r }
}

// NewLinear returns a linear differencer with the given options applied.
func NewLinear(opts ...LinearOption) *Linear {
	l := &Linear{seedLen: 16, tableBits: 18}
	for _, o := range opts {
		o(l)
	}
	if l.obs != nil {
		l.met = resolveDiffMetrics(l.obs)
	}
	return l
}

// NewAuto returns NewLinear(opts...). It exists solely for the frozen
// benchmark adapter in perfbench/, which still calls it by that name;
// every other caller uses NewLinear.
func NewAuto(opts ...LinearOption) *Linear { return NewLinear(opts...) }

// Name implements Algorithm.
func (l *Linear) Name() string { return "linear" }

// krBase is the Karp–Rabin multiplier; arithmetic is modulo 2^64.
const krBase = 0x100000001b3 // the FNV prime, a fine odd multiplier

// krPow caches the low powers of krBase: krPow[i] = krBase^i mod 2^64.
// The unrolled hash kernel below turns eight dependent multiply-adds into
// eight independent products against these constants, which the CPU can
// issue in parallel.
var krPow = computeKRPow()

func computeKRPow() (pw [9]uint64) {
	pw[0] = 1
	for i := 1; i < len(pw); i++ {
		pw[i] = pw[i-1] * krBase
	}
	return pw
}

// krHash computes the Karp–Rabin hash of b in unrolled 8-byte chunks. It
// is bit-identical to feeding b through krHasher.roll byte by byte: the
// chunked form only regroups the Horner evaluation into independent
// products so a p-byte anchor hashes in ~p/8 dependent steps.
//
//ipvet:allocfree
func krHash(b []byte) uint64 {
	var h uint64
	i := 0
	for ; i+8 <= len(b); i += 8 {
		h = h*krPow[8] +
			uint64(b[i])*krPow[7] + uint64(b[i+1])*krPow[6] +
			uint64(b[i+2])*krPow[5] + uint64(b[i+3])*krPow[4] +
			uint64(b[i+4])*krPow[3] + uint64(b[i+5])*krPow[2] +
			uint64(b[i+6])*krPow[1] + uint64(b[i+7])
	}
	for ; i < len(b); i++ {
		h = h*krBase + uint64(b[i])
	}
	return h
}

// strideFor picks the reference indexing stride from the number of seed
// positions. Large references are anchored at every stride-th offset
// instead of every offset: a common substring of length >= p+stride-1
// still covers an anchor, and forward/backward extension recovers the
// skipped bytes, so only matches within stride-1 bytes of the minimum
// seed length can be lost (the alignment-robustness argument of
// arXiv:1502.07830). In exchange the table build does 1/stride of the
// inserts and the table itself shrinks by the same factor, which is what
// keeps it cache-resident (see tableBitsFor).
//
//ipvet:allocfree
func strideFor(nseeds int) int {
	switch {
	case nseeds >= 1<<20:
		return 8
	case nseeds >= 1<<18:
		return 4
	case nseeds >= 1<<16:
		return 2
	}
	return 1
}

// strideJump is the stride at or above which the build abandons rolling
// and hashes each anchor from scratch: re-initializing costs ~p/8
// unrolled steps per anchor, rolling costs one step per skipped byte, so
// the jump wins once stride reaches a chunk width.
const strideJump = 8

// tableBitsFor sizes the fingerprint table for the number of indexed
// anchors: the smallest power of two holding one slot per anchor (load
// factor <= 1, the same density the fixed default gave the largest
// corpus inputs), clamped to [10, maxBits]. A 64 KiB reference now probes
// a 512 KiB table instead of the fixed 2 MiB one — small enough to stay
// L2-resident, which the per-byte lookup in scanRange feels directly.
//
//ipvet:allocfree
func tableBitsFor(maxBits uint, indexed int) uint {
	bits := uint(10)
	for bits < maxBits && indexed > 1<<bits {
		bits++
	}
	return bits
}

// tableParams derives the (stride, table bits) pair for one reference
// length.
//
//ipvet:allocfree
func (l *Linear) tableParams(refLen int) (stride int, bits uint) {
	nseeds := refLen - l.seedLen + 1
	stride = strideFor(nseeds)
	indexed := (nseeds + stride - 1) / stride
	return stride, tableBitsFor(l.tableBits, indexed)
}

// krHasher computes rolling hashes of p-byte windows. It is a value type:
// hashers live on the differencer's stack frame rather than the heap.
type krHasher struct {
	p    int
	pow  uint64 // krBase^(p-1)
	hash uint64
}

//ipvet:allocfree
func newKRHasher(p int) krHasher {
	pow := uint64(1)
	for k := 0; k < p-1; k++ {
		pow *= krBase
	}
	return krHasher{p: p, pow: pow}
}

// init computes the hash of window b (len must be p).
//
//ipvet:allocfree
func (h *krHasher) init(b []byte) uint64 {
	h.hash = krHash(b)
	return h.hash
}

// roll slides the window one byte: drop out, take in.
//
//ipvet:allocfree
func (h *krHasher) roll(out, in byte) uint64 {
	h.hash = (h.hash-uint64(out)*h.pow)*krBase + uint64(in)
	return h.hash
}

// krTable maps fingerprint buckets to the first reference offset whose
// seed hashed there. Each entry packs three fields into one uint64
// (DESIGN.md §10):
//
//	bits 63..48  generation that wrote the entry
//	bits 47..32  tag: the top 16 bits of the seed's full fingerprint
//	bits 31..0   reference offset plus one
//
// The generation makes reusing the table for a new diff a counter bump,
// not a multi-megabyte clear. The tag lets lookup reject a probe whose
// bucket holds a different seed without reading the reference: different
// tags mean different fingerprints, hence different seed bytes, so the
// byte comparison the tag skips could only have failed. Output is
// therefore identical to an untagged table; only the wasted compares (a
// cache miss each once the reference outgrows the cache) are gone.
//
// A table belongs to one pooled state and is only touched by the diff that
// holds that state, so entries are plain loads and stores.
type krTable struct {
	entries []uint64
	gen     uint16
	mask    uint64
}

// key returns the high word of an entry for fingerprint h in the current
// generation: the generation above the tag. Buckets use the low tableBits
// (at most 26) bits of h, so the tag is independent of the bucket.
//
//ipvet:allocfree
func (t *krTable) key(h uint64) uint64 { return uint64(t.gen)<<16 | h>>48 }

// prepare sizes the table for 2^bits entries and advances the generation,
// invalidating all previous entries without touching them. A table that
// once held more entries keeps its allocation, so a state that diffs
// windows of varying size allocates once, for the largest.
func (t *krTable) prepare(bits uint) {
	size := 1 << bits
	t.mask = uint64(size) - 1
	if cap(t.entries) < size {
		t.entries = make([]uint64, size)
		t.gen = 1
		return
	}
	t.entries = t.entries[:size]
	t.gen++
	if t.gen == 0 {
		// Generation wrap: entries from 2^16 prepares ago would alias the
		// new generation, so clear once per wrap — the whole allocation,
		// since a later, larger prepare reslices into it.
		clear(t.entries[:cap(t.entries)])
		t.gen = 1
	}
}

// insert records offset r for the seed with fingerprint h if its bucket
// is empty this generation (first occurrence wins, matching the
// left-to-right scan).
//
//ipvet:allocfree
func (t *krTable) insert(h uint64, r int) {
	b := h & t.mask
	if uint16(t.entries[b]>>48) != t.gen {
		t.entries[b] = t.key(h)<<32 | uint64(uint32(r+1))
	}
}

// lookup returns the stored offset for fingerprint h if its bucket is
// current and holds a seed with the same tag. A hit is still only a
// probable match; the caller compares bytes.
//
//ipvet:allocfree
func (t *krTable) lookup(h uint64) (int, bool) {
	e := t.entries[h&t.mask]
	if e>>32 != t.key(h) {
		return 0, false
	}
	return int(uint32(e)) - 1, true
}

// linearState is one diff's working memory: the fingerprint table and the
// emitter. States are pooled per Linear instance. The table is sized per
// diff by tableParams, so scan prepares it; only the emitter resets here.
type linearState struct {
	table krTable
	e     emitter
}

// prepare resets the emitter for a fresh diff.
//
//ipvet:allocfree
func (st *linearState) prepare() {
	st.e.reset()
}

// Diff implements Algorithm.
func (l *Linear) Diff(ref, version []byte) (*delta.Delta, error) {
	st, _ := l.pool.Get().(*linearState)
	if st == nil {
		st = &linearState{}
	}
	st.prepare()
	l.scan(st, ref, version)
	d := &delta.Delta{
		RefLen:     int64(len(ref)),
		VersionLen: int64(len(version)),
		Commands:   st.e.finish(),
	}
	l.pool.Put(st)
	l.record(ref, version, len(d.Commands))
	return d, nil
}

// record updates the volume counters after a completed diff.
//
//ipvet:allocfree
func (l *Linear) record(ref, version []byte, ncmds int) {
	if l.met == nil {
		return
	}
	l.met.diffs.Inc()
	l.met.refBytes.Add(int64(len(ref)))
	l.met.versionBytes.Add(int64(len(version)))
	l.met.commands.Add(int64(ncmds))
}

// scan runs the differencing pass, emitting commands into st.e.
//
//ipvet:allocfree
func (l *Linear) scan(st *linearState, ref, version []byte) {
	if len(version) == 0 {
		return
	}
	p := l.seedLen
	if len(ref) < p || len(version) < p {
		// Too short to seed any match: emit the version as a single add.
		st.e.literal(version)
		return
	}

	stride, bits := l.tableParams(len(ref))
	st.table.prepare(bits) //ipvet:ignore allocfree -- sizing is amortized: same-shape inputs reuse the table allocation
	var span obs.Span
	if l.met != nil {
		span = l.met.tableStage.Start()
		if stride > 1 {
			l.met.strided.Inc()
		}
	}
	buildTable(&st.table, ref, p, stride)
	if l.met != nil {
		span.End()
		span = l.met.emitStage.Start()
	}
	scanRange(&st.table, &st.e, ref, version, p)
	if l.met != nil {
		span.End()
	}
}

// buildTable indexes the reference seeds whose start offsets are multiples
// of stride: table[h] maps the fingerprint bucket h to the anchor's first
// occurrence. Below strideJump the hash rolls across every position (one
// cheap step per skipped byte); at or above it each anchor is hashed from
// scratch with the unrolled kernel and the skipped bytes are never
// touched.
//
//ipvet:allocfree
func buildTable(t *krTable, ref []byte, p, stride int) {
	n := len(ref) - p + 1 // seed positions
	if n <= 0 {
		return
	}
	if stride >= strideJump {
		for r := 0; r < n; r += stride {
			t.insert(krHash(ref[r:r+p]), r)
		}
		return
	}
	rh := newKRHasher(p)
	rh.init(ref[:p])
	next := 0 // the next anchor
	for r := 0; ; r++ {
		if r == next {
			t.insert(rh.hash, r)
			next += stride
		}
		if r+1 >= n {
			break
		}
		rh.roll(ref[r], ref[r+p])
	}
}

// scanRange scans version against the indexed reference, emitting
// commands into e that cover exactly its bytes: each verified seed match
// is extended forward as far as the files agree and backward into the
// pending literal run.
//
//ipvet:allocfree
func scanRange(t *krTable, e *emitter, ref, version []byte, p int) {
	if len(version) < p {
		e.literal(version)
		return
	}
	v := 0
	lit := 0 // start of the current unmatched literal run
	vh := newKRHasher(p)
	vh.init(version[:p])
	for {
		// Verify: fingerprints collide, bytes decide.
		if r, ok := t.lookup(vh.hash); ok && bytes.Equal(ref[r:r+p], version[v:v+p]) {
			fwd := p + matchForward(ref, version, r+p, v+p)
			back := matchBackward(ref, version, r, v, v-lit)
			// Emit literals preceding the (extended) match.
			e.literal(version[lit : v-back])
			e.copyCmd(int64(r-back), int64(fwd+back))
			v += fwd
			lit = v
			if v+p > len(version) {
				break
			}
			vh.init(version[v : v+p])
			continue
		}
		if v+1+p > len(version) {
			break
		}
		vh.roll(version[v], version[v+p])
		v++
	}
	e.literal(version[lit:])
}

// Differ is a reusable linear differencer for single-threaded steady-state
// pipelines: one instance owns the fingerprint table, the emitter, and the
// output delta, so repeated Diff calls perform no heap allocations at all.
// The returned delta is owned by the Differ and valid only until its next
// call; callers that retain results across calls should use (*Linear).Diff
// (whose output is detached) or clone. A Differ is not safe for concurrent
// use — (*Linear).Diff pools its state internally and is.
type Differ struct {
	l   *Linear
	st  linearState
	out delta.Delta
}

// NewDiffer returns a reusable differencer with the given options applied.
func NewDiffer(opts ...LinearOption) *Differ {
	return &Differ{l: NewLinear(opts...)}
}

// Name identifies the algorithm in reports.
func (dr *Differ) Name() string { return dr.l.Name() }

// Diff computes the delta like (*Linear).Diff, into differ-owned storage
// that is reused by — and valid only until — the next call.
func (dr *Differ) Diff(ref, version []byte) (*delta.Delta, error) {
	dr.st.prepare()
	dr.l.scan(&dr.st, ref, version)
	dr.out = delta.Delta{
		RefLen:     int64(len(ref)),
		VersionLen: int64(len(version)),
		Commands:   dr.st.e.finishReuse(),
	}
	dr.l.record(ref, version, len(dr.out.Commands))
	return &dr.out, nil
}
