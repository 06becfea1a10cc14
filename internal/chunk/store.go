package chunk

import (
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ipdelta/internal/obs"
)

// ErrNoSuchChunk reports a chunk address the store cannot resolve.
var ErrNoSuchChunk = errors.New("chunk: no such chunk")

// storeMetrics holds the pre-resolved handles of an observed Store.
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

func resolveStoreMetrics(r *obs.Registry) *storeMetrics {
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
// evicted when the unpinned byte budget overflows.
type entry struct {
	data []byte
	refs int64
	el   *list.Element // non-nil while unpinned
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
	lru      *list.List // of ID; front = most recently unpinned/touched
	unpinned int64      // bytes held by refs==0 entries
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
		lru:      list.New(),
		maxUnpin: DefaultMaxUnpinned,
		inflight: make(map[ID]*ingestFlight),
	}
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
	if s.met != nil {
		s.met.sizes.Observe(ref.Length)
	}
	for {
		s.mu.Lock()
		if e, ok := s.chunks[ref.ID]; ok {
			s.pinLocked(e)
			s.mu.Unlock()
			if s.met != nil {
				s.met.dedupHits.Inc()
				s.met.savedBytes.Add(ref.Length)
			}
			return ref
		}
		if f, ok := s.inflight[ref.ID]; ok {
			s.mu.Unlock()
			if s.met != nil {
				s.met.flights.Inc()
			}
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
		e := &entry{data: owned, refs: 1}
		s.chunks[ref.ID] = e
		delete(s.inflight, ref.ID)
		s.mu.Unlock()
		f.wg.Done()
		if s.met != nil {
			s.met.dedupMiss.Inc()
			s.met.storedByte.Add(ref.Length)
			s.met.resident.Add(ref.Length)
		}
		return ref
	}
}

// pinLocked takes a reference, removing the entry from the unpinned LRU
// if this is the first one back.
func (s *Store) pinLocked(e *entry) {
	e.refs++
	if e.el != nil {
		s.lru.Remove(e.el)
		e.el = nil
		s.unpinned -= int64(len(e.data)) //ipvet:ignore locksafe -- xxxLocked helper: every caller holds s.mu
	}
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
			e.el = s.lru.PushFront(id)
			s.unpinned += int64(len(e.data))
			freed = s.evictLocked()
		}
	}
	s.mu.Unlock()
	if freed > 0 && s.met != nil {
		s.met.resident.Add(-freed)
	}
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
	for s.unpinned > s.maxUnpin {
		back := s.lru.Back()
		if back == nil {
			break
		}
		id := back.Value.(ID)
		e := s.chunks[id]
		s.lru.Remove(back)
		delete(s.chunks, id)
		s.unpinned -= int64(len(e.data)) //ipvet:ignore locksafe -- xxxLocked helper: every caller holds s.mu
		freed += int64(len(e.data))
		if s.met != nil {
			s.met.evictions.Inc()
		}
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
	if e.el != nil {
		s.lru.MoveToFront(e.el)
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
// §14). Chunks are installed in input order, so the recipe, the store's
// contents and its counters are those of an Ingest call per chunk. An
// input of one batch, or GOMAXPROCS=1, is hashed inline.
func (s *Store) IngestAll(ck *Chunker, data []byte) Recipe {
	r := Recipe{Chunks: make([]Ref, 0, len(data)/ck.p.Avg+1)}
	installBatch := func(b *ingestBatch) {
		lo := 0
		for k, end := range b.ends[:b.n] {
			r.Chunks = append(r.Chunks, s.install(b.refs[k], b.data[lo:end]))
			lo = end
		}
	}
	var first ingestBatch
	rest := first.cut(ck, data)
	hashers := min(runtime.GOMAXPROCS(0)-1, len(rest)/(ck.p.Avg*ingestBatchLen)+1)
	if len(rest) == 0 || hashers == 0 {
		for {
			first.hash()
			installBatch(&first)
			if len(rest) == 0 {
				return r
			}
			rest = first.cut(ck, rest)
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
	ring[0].data, ring[0].ends, ring[0].n = first.data, first.ends, first.n
	send(&ring[0])
	head, inFlight := 0, 1
	for len(rest) > 0 || inFlight > 0 {
		if len(rest) > 0 && inFlight < len(ring) {
			b := &ring[(head+inFlight)%len(ring)]
			rest = b.cut(ck, rest)
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

// ingestBatchLen is the number of chunks IngestAll hands a hasher at a
// time: about 512 KiB at the default average chunk size.
const ingestBatchLen = 64

// ingestBatch is up to ingestBatchLen consecutive chunks of an IngestAll
// input. The cutter fills data, ends and n; a hasher then fills refs and
// marks the batch hashed. Neither touches the batch while the other owns
// it.
type ingestBatch struct {
	data   []byte              // the input the batch's chunks cover
	ends   [ingestBatchLen]int // chunk k is data[ends[k-1]:ends[k]]
	n      int                 // chunks in the batch
	refs   [ingestBatchLen]Ref // RefOf each chunk
	hashed sync.WaitGroup      // done once refs are filled
}

// cut fills b with the next chunks of data and returns the rest.
func (b *ingestBatch) cut(ck *Chunker, data []byte) []byte {
	end := 0
	for b.n = 0; b.n < ingestBatchLen && end < len(data); b.n++ {
		n, _ := ck.Cut(data[end:])
		end += n
		b.ends[b.n] = end
	}
	b.data = data[:end]
	return data[end:]
}

// hash computes the Ref of every chunk in b.
func (b *ingestBatch) hash() {
	lo := 0
	for k, end := range b.ends[:b.n] {
		b.refs[k] = RefOf(b.data[lo:end])
		lo = end
	}
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
