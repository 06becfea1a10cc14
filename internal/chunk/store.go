package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ipdelta/internal/obs"
)

// ErrNoSuchChunk reports a chunk address the store cannot resolve.
var ErrNoSuchChunk = errors.New("chunk: no such chunk")

// storeMetrics holds the pre-resolved handles of a Store.
type storeMetrics struct {
	dedupHits  *obs.Counter   // ingests that found the chunk already present
	dedupMiss  *obs.Counter   // ingests that stored a new chunk
	savedBytes *obs.Counter   // bytes NOT stored thanks to dedup
	storedByte *obs.Counter   // bytes stored for new chunks
	evictions  *obs.Counter   // unpinned chunks dropped by the LRU bound
	flights    *obs.Counter   // ingests that waited on a concurrent twin
	resident   *obs.Gauge     // bytes currently resident (pinned + unpinned)
	sizes      *obs.Histogram // chunk-size distribution at ingest
}

var unobservedStore storeMetrics // nil handles: calls do nothing

func resolveStoreMetrics(r *obs.Registry) *storeMetrics {
	if r == nil {
		return &unobservedStore
	}
	return &storeMetrics{
		dedupHits:  r.Counter("ipdelta_chunk_dedup_hits_total"),
		dedupMiss:  r.Counter("ipdelta_chunk_dedup_misses_total"),
		savedBytes: r.Counter("ipdelta_chunk_dedup_bytes_saved_total"),
		storedByte: r.Counter("ipdelta_chunk_stored_bytes_total"),
		evictions:  r.Counter("ipdelta_chunk_evictions_total"),
		flights:    r.Counter("ipdelta_chunk_ingest_flights_total"),
		resident:   r.Gauge("ipdelta_chunk_resident_bytes"),
		sizes:      r.Histogram("ipdelta_chunk_size_bytes", obs.SizeBuckets),
	}
}

// entry is one resident chunk. refs counts recipe references (pins);
// while refs is zero the entry sits in the unpinned LRU and may be
// evicted when the unpinned byte budget overflows. The LRU links live in
// the entry, so moving a chunk on or off the LRU allocates nothing.
type entry struct {
	data       []byte
	crc        uint32 // CRC32 of data, so a predicted chunk's Ref comes from the store
	refs       int64
	id         ID
	prev, next *entry // LRU neighbours while unpinned; nil while pinned
}

// ingestFlight deduplicates concurrent ingests of the same new chunk:
// one goroutine copies and installs, late arrivals wait and then just
// take a reference — the singleflight of internal/lru, kept apart here
// because a flight's result is a refcounted pin, not a cached value.
type ingestFlight struct {
	wg sync.WaitGroup
}

// Store is a bounded, content-addressed chunk store. Chunks are
// refcounted: Ingest takes a reference, Release drops one. Chunks whose
// refcount is zero stay resident in an LRU (cheap re-ingest of content
// that comes back) until the unpinned byte budget evicts them. One Store
// may back any number of version stores — identical chunks ingested by
// different tenants are stored once and shared.
//
// A Store is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	chunks   map[ID]*entry
	lru      entry // sentinel of the unpinned LRU: next = most recently unpinned/touched
	unpinned int64 // bytes held by refs==0 entries
	maxUnpin int64
	inflight map[ID]*ingestFlight
	met      *storeMetrics
}

// DefaultMaxUnpinned bounds the unpinned resident set when no explicit
// budget is configured: 64 MiB of released-but-cached chunks.
const DefaultMaxUnpinned = 64 << 20

// StoreOption customizes a Store.
type StoreOption func(*Store)

// WithMaxUnpinned sets the byte budget for unpinned (refcount zero)
// chunks; <= 0 keeps the default. Pinned chunks are never evicted — a
// recipe that holds references can always materialize.
func WithMaxUnpinned(n int64) StoreOption {
	return func(s *Store) {
		if n > 0 {
			s.maxUnpin = n
		}
	}
}

// WithObserver attaches a metrics registry: dedup hit/miss/bytes-saved
// counters, the chunk-size histogram, eviction and resident-byte gauges.
func WithObserver(r *obs.Registry) StoreOption {
	return func(s *Store) { s.met = resolveStoreMetrics(r) }
}

// NewStore returns an empty chunk store.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		chunks:   make(map[ID]*entry),
		maxUnpin: DefaultMaxUnpinned,
		inflight: make(map[ID]*ingestFlight),
		met:      &unobservedStore,
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	for _, o := range opts {
		o(s)
	}
	return s
}

// Ingest stores data under its content address and takes one reference,
// returning the chunk's Ref. If the chunk is already resident the data
// is NOT copied again — that is the dedup win, and the hit/saved-bytes
// counters record it. Concurrent ingests of the same new chunk perform
// one copy (singleflight).
func (s *Store) Ingest(data []byte) Ref {
	return s.install(RefOf(data), data)
}

// install takes one reference to the chunk ref describes, storing a copy
// of data (its content) if no copy is resident.
func (s *Store) install(ref Ref, data []byte) Ref {
	s.met.sizes.Observe(ref.Length)
	for {
		s.mu.Lock()
		if e, ok := s.chunks[ref.ID]; ok {
			s.pinLocked(e)
			s.mu.Unlock()
			s.met.dedupHits.Inc()
			s.met.savedBytes.Add(ref.Length)
			return ref
		}
		if f, ok := s.inflight[ref.ID]; ok {
			s.mu.Unlock()
			s.met.flights.Inc()
			f.wg.Wait()
			continue // the winner installed it; retry resolves to the hit path
		}
		f := &ingestFlight{}
		f.wg.Add(1)
		s.inflight[ref.ID] = f
		s.mu.Unlock()

		// Copy outside the lock: the store owns its bytes (callers may
		// reuse their buffers), and a large chunk copy must not stall
		// unrelated ingests.
		owned := make([]byte, len(data))
		copy(owned, data)

		s.mu.Lock()
		e := &entry{data: owned, crc: ref.CRC, refs: 1, id: ref.ID}
		s.chunks[ref.ID] = e
		delete(s.inflight, ref.ID)
		s.mu.Unlock()
		f.wg.Done()
		s.met.dedupMiss.Inc()
		s.met.storedByte.Add(ref.Length)
		s.met.resident.Add(ref.Length)
		return ref
	}
}

// pinLocked takes a reference, removing the entry from the unpinned LRU
// if this is the first one back.
func (s *Store) pinLocked(e *entry) {
	e.refs++
	if e.next != nil {
		e.unlink()
		s.unpinned -= int64(len(e.data)) //ipvet:ignore locksafe -- xxxLocked helper: every caller holds s.mu
	}
}

// pushFrontLocked puts the unlinked entry e at the front of the LRU.
func (s *Store) pushFrontLocked(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the LRU.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Release drops one reference to id. When the last reference goes, the
// chunk moves to the unpinned LRU; overflowing the unpinned budget
// evicts the least recently used unpinned chunks for real.
func (s *Store) Release(id ID) {
	var freed int64
	s.mu.Lock()
	e, ok := s.chunks[id]
	if ok && e.refs > 0 {
		e.refs--
		if e.refs == 0 {
			s.pushFrontLocked(e)
			s.unpinned += int64(len(e.data))
			freed = s.evictLocked()
		}
	}
	s.mu.Unlock()
	s.met.resident.Add(-freed)
}

// ReleaseRecipe drops one reference per chunk of r.
func (s *Store) ReleaseRecipe(r Recipe) {
	for _, c := range r.Chunks {
		s.Release(c.ID)
	}
}

// evictLocked enforces the unpinned byte budget, returning bytes freed.
func (s *Store) evictLocked() int64 {
	var freed int64
	for s.unpinned > s.maxUnpin && s.lru.prev != &s.lru {
		e := s.lru.prev
		e.unlink()
		delete(s.chunks, e.id)
		s.unpinned -= int64(len(e.data)) //ipvet:ignore locksafe -- xxxLocked helper: every caller holds s.mu
		freed += int64(len(e.data))
		s.met.evictions.Inc()
	}
	return freed
}

// Chunk implements Source: it returns the resident content of id. The
// slice is shared and read-only. Unpinned chunks are touched in the LRU.
func (s *Store) Chunk(id ID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.chunks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchChunk, id)
	}
	if e.next != nil {
		e.unlink()
		s.pushFrontLocked(e)
	}
	return e.data, nil
}

// Contains reports whether id is resident (pinned or unpinned).
func (s *Store) Contains(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.chunks[id]
	return ok
}

// IngestAll splits data with ck and ingests every chunk, returning the
// version's recipe. This is the chunked ingest path: for a version that
// shares most content with anything previously ingested — by any tenant
// of this store — only the novel chunks cost storage.
//
// The calling goroutine cuts and installs; GOMAXPROCS−1 hashers compute
// the chunks' Refs in between, a batch of chunks at a time (DESIGN.md
// §13). Chunks are installed in input order, so the recipe, the store's
// contents and its counters are those of an Ingest call per chunk. An
// input of one batch, or GOMAXPROCS=1, is hashed inline.
func (s *Store) IngestAll(ck *Chunker, data []byte) Recipe {
	return s.IngestLike(ck, data, Recipe{})
}

// IngestLike is IngestAll for data that resembles the version like
// describes, typically its predecessor. It returns IngestAll's recipe and
// leaves the store and its counters as IngestAll would. But where a
// resident chunk of like recurs in data at a cut point, a byte compare
// against the resident copy replaces cutting and hashing it, so the work
// follows what changed rather than the size of data (DESIGN.md §13,
// "Predicted ingest").
//
// like must have been cut by a Chunker with ck's Params, as every recipe
// IngestAll or IngestLike returned for ck was. Only like's chunk IDs are
// used: a predicted chunk's Ref comes from the store. A chunk of like
// that is not resident when the call starts is not predicted.
func (s *Store) IngestLike(ck *Chunker, data []byte, like Recipe) Recipe {
	r := Recipe{Chunks: make([]Ref, 0, len(data)/ck.p.Avg+1)}
	installBatch := func(b *ingestBatch) {
		lo := 0
		for k, end := range b.ends[:b.n] {
			r.Chunks = append(r.Chunks, s.install(b.refs[k], b.data[lo:end]))
			lo = end
		}
	}
	p := s.newPredictor(ck, like)
	var first ingestBatch
	rest := first.cut(ck, p, data)
	hashers := min(runtime.GOMAXPROCS(0)-1, len(rest)/(ck.p.Avg*ingestBatchLen)+1)
	if len(rest) == 0 || hashers == 0 {
		for {
			first.hash()
			installBatch(&first)
			if len(rest) == 0 {
				return r
			}
			rest = first.cut(ck, p, rest)
		}
	}

	// Two batches per hasher keep every hasher busy while the cutter
	// fills the next one; the ring holds them in input order.
	ring := make([]ingestBatch, 2*hashers+1)
	// One slot per ring batch: every batch in flight fits, so a send
	// never blocks the cutter.
	work := make(chan *ingestBatch, len(ring))
	var wg sync.WaitGroup
	wg.Add(hashers)
	for range hashers {
		go func() {
			defer wg.Done()
			for b := range work {
				b.hash()
				b.hashed.Done()
			}
		}()
	}
	send := func(b *ingestBatch) {
		b.hashed.Add(1)
		work <- b
	}
	ring[0].data, ring[0].ends, ring[0].refs, ring[0].known, ring[0].n = first.data, first.ends, first.refs, first.known, first.n
	send(&ring[0])
	head, inFlight := 0, 1
	for len(rest) > 0 || inFlight > 0 {
		if len(rest) > 0 && inFlight < len(ring) {
			b := &ring[(head+inFlight)%len(ring)]
			rest = b.cut(ck, p, rest)
			send(b)
			inFlight++
			continue
		}
		b := &ring[head]
		b.hashed.Wait()
		installBatch(b)
		head = (head + 1) % len(ring)
		inFlight--
	}
	close(work)
	wg.Wait()
	return r
}

// ingestBatchLen is the number of chunks IngestLike hands a hasher at a
// time: about 512 KiB at the default average chunk size.
const ingestBatchLen = 64

// ingestBatch is up to ingestBatchLen consecutive chunks of an IngestLike
// input. The cutter fills data, ends, n and the predicted refs; a hasher
// then fills the other refs and marks the batch hashed. Neither touches
// the batch while the other owns it.
type ingestBatch struct {
	data   []byte               // the input the batch's chunks cover
	ends   [ingestBatchLen]int  // chunk k is data[ends[k-1]:ends[k]]
	n      int                  // chunks in the batch
	refs   [ingestBatchLen]Ref  // RefOf each chunk
	known  [ingestBatchLen]bool // refs[k] was predicted, so hash skips it
	hashed sync.WaitGroup       // done once refs are filled
}

// cut fills b with the next chunks of data and returns the rest. A chunk
// p predicts is taken whole with its Ref; any other is cut by ck.
func (b *ingestBatch) cut(ck *Chunker, p *predictor, data []byte) []byte {
	end := 0
	for b.n = 0; b.n < ingestBatchLen && end < len(data); b.n++ {
		var n int
		if b.refs[b.n], b.known[b.n] = p.predict(data[end:]); b.known[b.n] {
			n = int(b.refs[b.n].Length)
		} else {
			n = ck.Cut(data[end:])
		}
		end += n
		b.ends[b.n] = end
	}
	b.data = data[:end]
	return data[end:]
}

// hash computes the Ref of every chunk in b that was not predicted.
func (b *ingestBatch) hash() {
	lo := 0
	for k, end := range b.ends[:b.n] {
		if !b.known[k] {
			b.refs[k] = RefOf(b.data[lo:end])
		}
		lo = end
	}
}

// predictor proposes the next chunk of an IngestLike input from the
// recipe the input resembles. Every chunk of like but the last was a
// final cut (content-defined or forced at Max), and Cut decides a final
// cut from the bytes since the previous cut alone. So at a cut point of
// the input, a chunk of like that the input's next bytes equal is the
// chunk Cut would find there, with the same ID. The last chunk of like
// may have ended at the end of its input instead, so it is predicted
// only where it ends the input too.
type predictor struct {
	chunks []likeChunk // like's chunks; data is nil where not predictable
	table  []likeSlot  // open addressing on a chunk's first 8 bytes
	shift  uint        // 64 − log2(len(table))
	next   int         // the chunk after the last one predicted
}

// likeChunk is the resident content of one chunk of like and its Ref.
type likeChunk struct {
	data []byte
	ref  Ref
}

// likeSlot maps the first 8 bytes of a chunk of like to its index + 1;
// k == 0 marks an empty slot.
type likeSlot struct {
	key uint64
	k   int32
}

// newPredictor reads the resident content of like's chunks and indexes
// it by first 8 bytes, or returns nil when none is resident. It reads under
// the store's lock without touching the LRU, so ingesting like this
// changes no eviction order.
func (s *Store) newPredictor(ck *Chunker, like Recipe) *predictor {
	if len(like.Chunks) == 0 {
		return nil
	}
	p := &predictor{chunks: make([]likeChunk, len(like.Chunks))}
	last := len(like.Chunks) - 1
	n := 0
	s.mu.Lock()
	for k, c := range like.Chunks {
		e, ok := s.chunks[c.ID]
		// Cut never returns a chunk over Max, and a final cut is longer
		// than Min.
		if !ok || len(e.data) > ck.p.Max || (k < last && len(e.data) <= ck.p.Min) {
			continue
		}
		p.chunks[k] = likeChunk{data: e.data, ref: Ref{ID: c.ID, Length: int64(len(e.data)), CRC: e.crc}}
		n++
	}
	s.mu.Unlock()
	if n == 0 {
		return nil
	}

	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	p.table, p.shift = make([]likeSlot, 1<<bits), 64-bits
	for k, c := range p.chunks {
		if len(c.data) < 8 {
			continue
		}
		key := binary.LittleEndian.Uint64(c.data)
		i := p.slot(key)
		for p.table[i].k != 0 && p.table[i].key != key {
			i = (i + 1) & (len(p.table) - 1)
		}
		if p.table[i].k == 0 { // the first chunk with these 8 bytes keeps the slot
			p.table[i] = likeSlot{key: key, k: int32(k + 1)}
		}
	}
	return p
}

// slot returns the home slot of key.
func (p *predictor) slot(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> p.shift)
}

// predict returns the Ref of the chunk of like that data starts with, if
// any: first the chunk after the last one predicted, then the chunk that
// shares data's first 8 bytes. A nil predictor predicts nothing.
func (p *predictor) predict(data []byte) (Ref, bool) {
	if p == nil {
		return Ref{}, false
	}
	if p.match(p.next, data) {
		return p.take(p.next), true
	}
	if len(data) < 8 {
		return Ref{}, false
	}
	key := binary.LittleEndian.Uint64(data)
	for i := p.slot(key); p.table[i].k != 0; i = (i + 1) & (len(p.table) - 1) {
		if p.table[i].key == key {
			if k := int(p.table[i].k - 1); p.match(k, data) {
				return p.take(k), true
			}
			break
		}
	}
	return Ref{}, false
}

// match reports whether data starts with chunk k of like, and that chunk
// may end there.
func (p *predictor) match(k int, data []byte) bool {
	if k >= len(p.chunks) {
		return false
	}
	c := p.chunks[k].data
	return c != nil && bytes.HasPrefix(data, c) && (k < len(p.chunks)-1 || len(c) == len(data))
}

// take records chunk k as predicted and returns its Ref.
func (p *predictor) take(k int) Ref {
	p.next = k + 1
	return p.chunks[k].ref
}

// Stats is a point-in-time summary of the store, for tests and tools.
type Stats struct {
	Chunks        int   // resident chunks (pinned + unpinned)
	PinnedBytes   int64 // bytes referenced by at least one recipe
	UnpinnedBytes int64 // bytes resident but unreferenced (LRU)
}

// Stats returns the current resident-set summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Chunks: len(s.chunks), UnpinnedBytes: s.unpinned}
	for _, e := range s.chunks {
		if e.refs > 0 {
			st.PinnedBytes += int64(len(e.data))
		}
	}
	return st
}
