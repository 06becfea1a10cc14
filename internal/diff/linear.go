package diff

import (
	"bytes"
	"sync"

	"ipdelta/internal/delta"
	"ipdelta/internal/obs"
)

// diffMetrics holds the pre-resolved metric handles of a differencer
// (DESIGN.md §9). Resolved once at construction; per-diff updates are
// atomic adds and stage spans only, so observing a differencer adds no
// allocation to a diff.
type diffMetrics struct {
	diffs        *obs.Counter
	refBytes     *obs.Counter
	versionBytes *obs.Counter
	commands     *obs.Counter
	strided      *obs.Counter // table builds that used an anchor stride > 1

	tableStage obs.Stage // match-table (fingerprint index) build
	emitStage  obs.Stage // version scan + command emission
}

var unobservedDiff diffMetrics // nil handles, zero stages: calls do nothing

// resolveDiffMetrics binds the diff metric set in r.
func resolveDiffMetrics(r *obs.Registry) *diffMetrics {
	if r == nil {
		return &unobservedDiff
	}
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
// Diff's working memory (the fingerprint table and the emitter) comes
// from one process-wide pool, so repeated and concurrent calls reuse it
// instead of reallocating the table (at the default 18 table bits, up to
// 2 MiB per call) and regrowing the emitter. A fresh Linear, such as each
// new update server's, starts on the scratch earlier instances left.
// Diff copies its delta out of that memory; DiffBorrowed lends it instead,
// until Release.
type Linear struct {
	seedLen   int
	tableBits uint
	met       *diffMetrics
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
	return func(l *Linear) { l.met = resolveDiffMetrics(r) }
}

// NewLinear returns a linear differencer with the given options applied.
func NewLinear(opts ...LinearOption) *Linear {
	l := &Linear{seedLen: 16, tableBits: 18, met: &unobservedDiff}
	for _, o := range opts {
		o(l)
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
// stores and the table itself shrinks by the same factor, which is what
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
	return krHasher{p: p, pow: krPowP(p - 1)}
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
// Buckets use the low tableBits (at most 26) bits of the fingerprint, so
// the tag is independent of the bucket. The generation makes reusing the
// table for a new diff a counter bump, not a multi-megabyte clear. The
// tag lets a probe reject a bucket that holds a different seed without
// reading the reference: different tags mean different fingerprints,
// hence different seed bytes, so the byte comparison the tag skips could
// only have failed. Output is therefore identical to an untagged table;
// only the wasted compares (a cache miss each once the reference outgrows
// the cache) are gone.
//
// A table belongs to one pooled state and is only touched by the diff that
// holds that state, so entries are plain loads and stores. fp is the
// block of fingerprints buildTable and scanRange fill with krFill.
type krTable struct {
	entries []uint64
	gen     uint16
	mask    uint64
	fp      [krBlock]uint64
}

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

// linearState is one diff's working memory: the fingerprint table, the
// emitter, and the delta the last scan left in the emitter. States are
// shared by every Linear through linearStates; the table is sized per
// diff by tableParams, so scan prepares it, and only the emitter resets
// here.
type linearState struct {
	table krTable
	e     emitter
	out   delta.Delta
}

// linearStates pools idle linearStates for every Linear in the process.
var linearStates = sync.Pool{New: func() any { return new(linearState) }}

// prepare resets the emitter for a fresh diff.
//
//ipvet:allocfree
func (st *linearState) prepare() {
	st.e.reset()
}

// Borrowed is a delta that DiffBorrowed left in the differ's pooled
// working memory. Its commands and add data alias that memory: read them
// only until Release, which hands the memory to the next diff.
type Borrowed struct{ st *linearState }

// Delta returns the borrowed delta.
func (b Borrowed) Delta() *delta.Delta { return &b.st.out }

// Release ends the borrow; call it exactly once, after the last use of
// the delta.
func (b Borrowed) Release() { linearStates.Put(b.st) }

// DiffBorrowed diffs version against ref as Diff does, but leaves the
// delta in pooled working memory instead of copying it out, so a caller
// that is done with the delta once it has converted and encoded it
// allocates nothing for it. The delta is identical to Diff's.
func (l *Linear) DiffBorrowed(ref, version []byte) Borrowed {
	st := linearStates.Get().(*linearState)
	st.prepare()
	l.scan(st, ref, version)
	st.out = delta.Delta{
		RefLen:     int64(len(ref)),
		VersionLen: int64(len(version)),
		Commands:   st.e.commands(),
	}
	l.record(ref, version, len(st.out.Commands))
	return Borrowed{st}
}

// Diff implements Algorithm: DiffBorrowed, with the delta copied out of
// the pooled memory into a command slice and one literal arena the
// caller owns.
func (l *Linear) Diff(ref, version []byte) (*delta.Delta, error) {
	b := l.DiffBorrowed(ref, version)
	d := &delta.Delta{
		RefLen:     b.st.out.RefLen,
		VersionLen: b.st.out.VersionLen,
		Commands:   detach(b.st.out.Commands, len(b.st.e.lits)),
	}
	b.Release()
	return d, nil
}

// record updates the volume counters after a completed diff.
//
//ipvet:allocfree
func (l *Linear) record(ref, version []byte, ncmds int) {
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
	span := l.met.tableStage.Start()
	if stride > 1 {
		l.met.strided.Inc()
	}
	buildTable(&st.table, ref, p, stride)
	span.End()
	span = l.met.emitStage.Start()
	scanRange(&st.table, &st.e, ref, version, p)
	span.End()
}

// krBlock is the most fingerprints krFill computes at once: the block
// buildTable stores from and scanRange probes from.
const krBlock = 2048

// krFill sets fp[i] to krHash(b[i:i+p]) for every i < len(fp); b holds
// the len(fp)+p-1 bytes those windows span and powP is krBase^p. The
// block is split into two lanes, each hashed once and then rolled byte by
// byte. A roll's multiply by krBase is its only step that waits on the
// previous fingerprint, so with two independent lanes in flight the loop
// runs at the multiplier's throughput rather than its latency. Rolling is
// exact in arithmetic modulo 2^64, so every fingerprint equals krHash's.
//
//ipvet:allocfree
func krFill(fp []uint64, b []byte, p int, powP uint64) {
	n := len(fp)
	if n == 0 {
		return
	}
	b = b[:n+p-1]
	h := krHash(b[:p])
	fp[0] = h
	k := 1
	if q := n / 2; q >= 16 {
		h1 := krHash(b[q : q+p])
		fp[q] = h1
		// Lane j rolls fp[j*q+1 : (j+1)*q], dropping out[k] and taking
		// in[k]; reslicing every lane to one length lets the compiler
		// drop the bounds checks.
		m := q - 1
		f0, f1 := fp[1:][:m], fp[q+1:][:m]
		o0, o1 := b[:m], b[q:][:m]
		i0, i1 := b[p:][:m], b[q+p:][:m]
		for k := range f0 {
			d0 := uint64(i0[k]) - uint64(o0[k])*powP
			d1 := uint64(i1[k]) - uint64(o1[k])*powP
			h, h1 = h*krBase+d0, h1*krBase+d1
			f0[k], f1[k] = h, h1
		}
		h, k = h1, 2*q
	}
	// The position after the second lane, or the whole of a short block.
	for ; k < n; k++ {
		h = h*krBase + uint64(b[k+p-1]) - uint64(b[k-1])*powP
		fp[k] = h
	}
}

// krPowP returns krBase^p: a roll of a p-byte window multiplies the
// hash by krBase and drops the oldest byte at this weight.
//
//ipvet:allocfree
func krPowP(p int) uint64 {
	pw := uint64(1)
	for k := 0; k < p; k++ {
		pw *= krBase
	}
	return pw
}

// buildTable indexes the reference seeds whose start offsets are multiples
// of stride: table[h] maps the fingerprint bucket h to the anchor's first
// occurrence. The anchors are stored from last to first, each store
// overwriting its bucket unconditionally, so the last store to a bucket —
// the one that stays — is its first occurrence: the same table as
// inserting front to back and keeping each bucket's first entry, without
// reading the bucket. The fingerprints come from krFill, krBlock
// positions at a time, blocks taken from the end of the reference
// backwards.
//
//ipvet:allocfree
func buildTable(t *krTable, ref []byte, p, stride int) {
	n := len(ref) - p + 1 // seed positions
	if n <= 0 {
		return
	}
	entries, mask, gen := t.entries, t.mask, uint64(t.gen)<<16
	powP := krPowP(p)
	// krBlock is a multiple of every stride strideFor returns, so each
	// block starts on an anchor.
	for lo := (n - 1) / krBlock * krBlock; lo >= 0; lo -= krBlock {
		fp := t.fp[:min(krBlock, n-lo)]
		krFill(fp, ref[lo:lo+len(fp)+p-1], p, powP)
		for i := (len(fp) - 1) / stride * stride; i >= 0; i -= stride {
			h := fp[i]
			entries[h&mask] = (gen|h>>48)<<32 | uint64(uint32(lo+i+1))
		}
	}
}

// scanMinBlock is the block scanRange fingerprints after a match. Matches
// tend to follow each other within a few bytes, so the block starts small
// and doubles, up to krBlock, each time it is probed to the end without a
// match.
const scanMinBlock = 64

// scanRange scans version against the indexed reference, emitting
// commands into e that cover exactly its bytes: each verified seed match
// is extended forward as far as the files agree and backward into the
// pending literal run. The fingerprints of the positions ahead come from
// krFill a block at a time; a match refills the block from where it ends.
//
//ipvet:allocfree
func scanRange(t *krTable, e *emitter, ref, version []byte, p int) {
	if len(version) < p {
		e.literal(version)
		return
	}
	entries, mask, gen := t.entries, t.mask, uint64(t.gen)<<16
	powP := krPowP(p)
	last := len(version) - p // the last seed position
	v := 0
	lit := 0 // start of the current unmatched literal run
	block := scanMinBlock
	for v <= last {
		fp := t.fp[:min(block, last+1-v)]
		krFill(fp, version[v:v+len(fp)+p-1], p, powP)
		at := v
		v += len(fp) // where the scan resumes if nothing in fp matches
		block = min(2*block, krBlock)
		for i, h := range fp {
			ent := entries[h&mask]
			if ent>>32 != gen|h>>48 {
				continue
			}
			// Verify: fingerprints collide, bytes decide.
			r, w := int(uint32(ent))-1, at+i
			if !bytes.Equal(ref[r:r+p], version[w:w+p]) {
				continue
			}
			fwd := p + matchForward(ref, version, r+p, w+p)
			back := matchBackward(ref, version, r, w, w-lit)
			// Emit literals preceding the (extended) match.
			e.literal(version[lit : w-back])
			e.copyCmd(int64(r-back), int64(fwd+back))
			v = w + fwd
			lit = v
			block = scanMinBlock
			break
		}
	}
	e.literal(version[lit:])
}
