// Package store implements delta-chain version storage in the tradition of
// the systems the paper builds on (SCCS/RCS-style version stores and
// delta-compressed backup): a full base image plus one delta per
// subsequent release. Any version can be materialized, and — via delta
// composition — a single direct delta can be produced from any stored
// version to the newest one, ready for in-place conversion and device
// distribution, without materializing the intermediate versions.
//
// A Store is safe for concurrent use. With WithCache, recently
// materialized versions and composed deltas are kept in an LRU bounded
// by a budget in MiB, with singleflight deduplication, so a serving hot
// path stops replaying the delta chain per request (see DESIGN.md §10);
// cached artifacts are shared and must be treated as read-only by
// callers. A chunked store caches composed deltas only: its versions
// live in the chunk store, once.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"ipdelta/internal/chunk"
	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
)

// Errors reported by the store.
var (
	ErrNoSuchVersion = errors.New("store: no such version")
	ErrCorrupt       = errors.New("store: corrupt container")
)

// release is one stored version: its identity and how the store holds
// it. A plain store keeps the delta from the previous version (nil for the
// base); a chunked store keeps the version's chunk recipe and no delta.
type release struct {
	crc    uint32
	length int64
	d      *delta.Delta // plain: from release k-1 to k; nil for k == 0
	recipe chunk.Recipe // chunked: the version's chunks in order
}

// storeMetrics holds the pre-resolved stage handles of a Store
// (DESIGN.md §10, §12). The cache resolves its own counters.
type storeMetrics struct {
	materialize obs.Stage    // cold chain replays
	compose     obs.Stage    // cold delta compositions
	replays     *obs.Counter // chain links applied by materializations

	archiveBuild obs.Stage    // Store.Archive exports
	archivedSegs *obs.Counter // segments striped into an archive
}

var unobservedStore storeMetrics // nil handles, zero stages: calls do nothing

func resolveStoreMetrics(r *obs.Registry) *storeMetrics {
	if r == nil {
		return &unobservedStore
	}
	return &storeMetrics{
		materialize:  r.Stage("ipdelta_store_stage_materialize_nanos"),
		compose:      r.Stage("ipdelta_store_stage_compose_nanos"),
		replays:      r.Counter("ipdelta_store_chain_replays_total"),
		archiveBuild: r.Stage("ipdelta_store_stage_archive_build_nanos"),
		archivedSegs: r.Counter("ipdelta_store_archive_segments_total"),
	}
}

// Store holds a release history as base + delta chain, or — with
// WithChunking — as one chunk recipe per version. It is safe for
// concurrent use: any number of readers may overlap with appends.
type Store struct {
	mu       sync.RWMutex // guards releases (append-only; elements immutable)
	appendMu sync.Mutex   // serializes AppendVersion end to end
	base     []byte       // plain store only; immutable after New/Load
	releases []release
	algo     diff.Algorithm
	cache    *matCache
	met      *storeMetrics

	// Chunked store (WithChunking): every version is an ordered chunk
	// recipe over a content-addressed dedup store, and there is no delta
	// chain and no base copy: each version byte lives in a chunk. Appends
	// ingest the version against the head's recipe, DeltaBetween diffs
	// the two endpoint recipes, and Version materializes from chunks. The
	// chunk store may be shared across Stores (tenants), in which case
	// identical content is held once.
	chunked bool
	ck      *chunk.Chunker
	cs      *chunk.Store
	rd      *diff.RecipeDiffer

	// Construction-time knobs recorded by options, consumed by New.
	cacheBytes int64
	obsReg     *obs.Registry
}

// Option customizes a Store.
type Option func(*Store)

// WithAlgorithm selects the differencing algorithm a plain store's
// AppendVersion and Archive use (default linear). A chunked store diffs
// recipes and does not use it.
func WithAlgorithm(a diff.Algorithm) Option {
	return func(s *Store) { s.algo = a }
}

// WithChunking makes a chunked store: versions are split by a
// content-defined chunker into a content-addressed store and held as
// recipes, not as a delta chain. DeltaBetween diffs recipes (whole-chunk
// copies plus byte diffs of the unmatched runs, in bounded memory), and
// Version materializes from chunks. Pass a shared chunk store to dedup
// identical content across Stores — different tenants' versions that
// share chunks are held once — or nil for a private store.
func WithChunking(shared *chunk.Store) Option {
	return func(s *Store) {
		s.chunked = true
		s.cs = shared
	}
}

// WithCache enables the materialization cache with a budget of mib MiB
// (mib <= 0 means no cache): recently used version images and
// composed deltas are retained while their bytes fit the budget, and
// concurrent requests for the same cold artifact share one computation.
// An image is charged its length, a composed delta its commands and add
// bytes; an artifact larger than the budget is computed and returned but
// not retained. DeltaBetween, and Version on a plain store, then return
// shared values that must be treated as read-only. A chunked store
// caches composed deltas only: its Version reads the chunks, and an
// image cached beside them would hold every byte twice.
func WithCache(mib int) Option {
	return func(s *Store) { s.cacheBytes = int64(mib) << 20 }
}

// WithObserver attaches a metrics registry: materialization and
// composition stage timings, chain-replay counts, and — when WithCache is
// also set — cache hit/miss/eviction counters and the in-flight and
// resident-bytes gauges.
func WithObserver(r *obs.Registry) Option {
	return func(s *Store) { s.obsReg = r }
}

// New creates a store whose first version is base. A plain store keeps
// a copy of base; a chunked one ingests it and keeps no copy.
func New(base []byte, opts ...Option) *Store {
	s := &Store{algo: diff.NewLinear()}
	for _, o := range opts {
		o(s)
	}
	if !s.chunked {
		s.base = append([]byte(nil), base...)
	}
	s.met = resolveStoreMetrics(s.obsReg)
	if s.cacheBytes > 0 {
		s.cache = newMatCache(s.cacheBytes, s.obsReg)
	}
	if s.chunked {
		s.ck, _ = chunk.NewChunker(chunk.Params{}) // zero params: statically valid defaults
		if s.cs == nil {
			s.cs = chunk.NewStore(chunk.WithObserver(s.obsReg))
		}
		s.rd = diff.NewRecipeDiffer(diff.WithRecipeObserver(s.obsReg))
	}
	s.releases = []release{{crc: crc32.ChecksumIEEE(base), length: int64(len(base))}}
	if s.chunked {
		s.releases[0].recipe = s.cs.IngestAll(s.ck, base)
	}
	return s
}

// NumVersions returns how many versions the store holds.
func (s *Store) NumVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.releases)
}

// AppendVersion stores a new head version and returns its index. A plain
// store diffs it against the materialized head; a chunked store ingests
// it against the head's recipe and runs no diff. Appends are serialized
// with each other but overlap freely with readers; existing versions and
// cached artifacts are never invalidated (the history is append-only).
func (s *Store) AppendVersion(version []byte) (int, error) {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.mu.RLock()
	n := len(s.releases)
	like := s.releases[n-1].recipe
	s.mu.RUnlock()
	rel := release{crc: crc32.ChecksumIEEE(version), length: int64(len(version))}
	if s.chunked {
		rel.recipe = s.cs.IngestLike(s.ck, version, like)
	} else {
		head, err := s.Version(n - 1)
		if err != nil {
			return 0, err
		}
		if rel.d, err = s.algo.Diff(head, version); err != nil {
			return 0, fmt.Errorf("store append: %w", err)
		}
	}
	s.mu.Lock()
	s.releases = append(s.releases, rel)
	s.mu.Unlock()
	return n, nil
}

// ChunkStats reports the chunk store's resident-set summary; ok is false
// when the store is not chunked.
func (s *Store) ChunkStats() (chunk.Stats, bool) {
	if !s.chunked {
		return chunk.Stats{}, false
	}
	return s.cs.Stats(), true
}

// Version materializes version i: a plain store applies the delta
// chain, a chunked one reads the version's chunks. On a cache-enabled
// plain store the result may be a shared cached image — treat it as
// read-only — and a miss replays only the suffix of the chain below the
// deepest cached ancestor. A chunked store never caches images, so its
// Version returns a fresh image the caller owns.
func (s *Store) Version(i int) ([]byte, error) {
	if n := s.NumVersions(); i < 0 || i >= n {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, i, n)
	}
	if s.cache == nil || s.chunked {
		return s.materialize(i, nil)
	}
	v, err := s.cache.do(cacheKey{kind: kindVersion, to: i}, func() (any, error) {
		return s.materialize(i, s.cache)
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// materialize builds version i: a chunked store reads it from chunks, a
// plain one replays the delta chain up to i, starting from the deepest
// cached ancestor when a cache is available. The bounds of i were checked
// by the caller; the chain below i is immutable, so the releases snapshot
// stays valid after the lock is dropped.
func (s *Store) materialize(i int, c *matCache) ([]byte, error) {
	if s.chunked {
		// Chunk-addressed materialization: no chain replay at any depth,
		// and every chunk is verified against its recipe identity.
		span := s.met.materialize.Start()
		s.mu.RLock()
		r := s.releases[i].recipe
		s.mu.RUnlock()
		img, err := chunk.Materialize(nil, r, s.cs)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("store version %d: %w", i, err)
		}
		return img, nil
	}
	span := s.met.materialize.Start()
	start, cur := 0, s.base
	if c != nil {
		if k, img, ok := c.nearestVersion(i); ok {
			start, cur = k, img
		}
	}
	s.mu.RLock()
	chain := s.releases[start+1 : i+1]
	s.mu.RUnlock()
	for k := range chain {
		next, err := chain[k].d.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("store version %d: %w", i, err)
		}
		cur = next
	}
	s.met.replays.Add(int64(len(chain)))
	span.End()
	if len(chain) == 0 && c == nil {
		// Uncached callers own the result; never hand out the base image
		// or a cached ancestor itself.
		cur = append([]byte(nil), cur...)
	}
	return cur, nil
}

// CRC returns the stored identity of version i.
func (s *Store) CRC(i int) (uint32, int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i < 0 || i >= len(s.releases) {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, i, len(s.releases))
	}
	return s.releases[i].crc, s.releases[i].length, nil
}

// Lookup finds the version index with the given identity.
func (s *Store) Lookup(crc uint32, length int64) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, r := range s.releases {
		if r.crc == crc && r.length == length {
			return k, true
		}
	}
	return 0, false
}

// DeltaBetween returns a single delta from version i to version j (i < j)
// by composing the stored chain — no intermediate version is materialized.
// On a cache-enabled store the composition is memoized per (i, j) with
// singleflight deduplication; the returned delta is shared and must be
// treated as read-only.
func (s *Store) DeltaBetween(i, j int) (*delta.Delta, error) {
	if n := s.NumVersions(); i < 0 || j >= n || i > j {
		return nil, fmt.Errorf("%w: %d..%d of %d", ErrNoSuchVersion, i, j, n)
	}
	if i == j {
		// Identity delta: cheap enough to rebuild per call.
		s.mu.RLock()
		length := s.releases[i].length
		s.mu.RUnlock()
		id := &delta.Delta{RefLen: length, VersionLen: length}
		if id.RefLen > 0 {
			id.Commands = []delta.Command{delta.NewCopy(0, 0, id.RefLen)}
		}
		return id, nil
	}
	if s.cache == nil {
		return s.compose(i, j)
	}
	v, err := s.cache.do(cacheKey{kind: kindDelta, from: i, to: j}, func() (any, error) {
		return s.compose(i, j)
	})
	if err != nil {
		return nil, err
	}
	return v.(*delta.Delta), nil
}

// compose folds the stored chain (i, j] into one delta; for j = i+1 on a
// plain store that is the stored delta itself. On a chunked store it
// instead diffs the endpoint recipes directly: the result is independent
// of the chain length between i and j, and typically tighter than a
// composition (composition can only intersect stored commands; the
// recipe diff rediscovers every chunk i and j still share). The releases
// snapshot is immutable, so no lock is held across the diff.
func (s *Store) compose(i, j int) (*delta.Delta, error) {
	span := s.met.compose.Start()
	s.mu.RLock()
	rels := s.releases[i : j+1]
	s.mu.RUnlock()
	var d *delta.Delta
	var err error
	if s.chunked {
		d, err = s.rd.DiffRecipes(rels[0].recipe, rels[j-i].recipe, s.cs)
	} else {
		chain := make([]*delta.Delta, 0, j-i)
		for _, r := range rels[1:] {
			chain = append(chain, r.d)
		}
		d, err = delta.ComposeChain(chain...)
	}
	span.End()
	return d, err
}

// InPlaceDeltaTo returns a direct, in-place reconstructible delta from
// version i to the newest version, composed from the chain and converted
// with the given policy. Conversion reads version i only for the copies
// it converts to adds (VersionReader), so a conversion that converts
// none never builds or caches that image.
func (s *Store) InPlaceDeltaTo(i int, policy graph.Policy) (*delta.Delta, *inplace.Stats, error) {
	head := s.NumVersions() - 1
	d, err := s.DeltaBetween(i, head)
	if err != nil {
		return nil, nil, err
	}
	return inplace.ConvertAt(d, s.versionReader(i), inplace.WithPolicy(policy))
}

// RollbackDelta returns an in-place reconstructible delta from the newest
// version back to version i — inversion of the composed forward chain,
// converted for in-place application. Devices use it to downgrade without
// the server storing backward deltas. Inversion needs version i whole; the
// head is read only for the copies conversion turns into adds.
func (s *Store) RollbackDelta(i int, policy graph.Policy) (*delta.Delta, *inplace.Stats, error) {
	head := s.NumVersions() - 1
	forward, err := s.DeltaBetween(i, head)
	if err != nil {
		return nil, nil, err
	}
	old, err := s.Version(i)
	if err != nil {
		return nil, nil, err
	}
	backward, err := delta.Invert(forward, old)
	if err != nil {
		return nil, nil, err
	}
	return inplace.ConvertAt(backward, s.versionReader(head), inplace.WithPolicy(policy))
}

// VersionReader returns version i read by byte range. On a chunked store
// it reads the chunks of i's recipe that a read touches, and never builds
// the whole image; on a plain store it materializes i through Version on
// its first read, and never when nothing is read.
func (s *Store) VersionReader(i int) (inplace.RefReader, error) {
	if n := s.NumVersions(); i < 0 || i >= n {
		return nil, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, i, n)
	}
	return s.versionReader(i), nil
}

// versionReader is VersionReader for an i the caller has checked.
func (s *Store) versionReader(i int) inplace.RefReader {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.chunked {
		return chunk.NewReader(s.releases[i].recipe, s.cs)
	}
	return &lazyVersion{s: s, i: i, size: s.releases[i].length}
}

// lazyVersion is a version image materialized on its first read.
type lazyVersion struct {
	s    *Store
	i    int
	size int64

	once sync.Once
	r    *bytes.Reader
	err  error
}

func (v *lazyVersion) Size() int64 { return v.size }

func (v *lazyVersion) ReadAt(p []byte, off int64) (int, error) {
	v.once.Do(func() {
		img, err := v.s.Version(v.i)
		v.r, v.err = bytes.NewReader(img), err
	})
	if v.err != nil {
		return 0, v.err
	}
	return v.r.ReadAt(p, off)
}

// StorageBytes returns the encoded size of the container Save writes: the
// base plus one delta per release in the ordered wire format — the space
// a delta-chain store saves over full copies. On a chunked store this
// costs one recipe diff per release.
func (s *Store) StorageBytes() (int64, error) {
	s.mu.RLock()
	total, n := s.releases[0].length, len(s.releases)
	s.mu.RUnlock()
	for k := 1; k < n; k++ {
		d, err := s.compose(k-1, k)
		if err != nil {
			return 0, err
		}
		size, err := codec.EncodedSize(d, codec.FormatOrdered)
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

// FullBytes returns the total size of all versions stored as full copies,
// for comparison against StorageBytes.
func (s *Store) FullBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, r := range s.releases {
		total += r.length
	}
	return total
}

// container framing for Save/Load.
var storeMagic = [4]byte{'I', 'P', 'S', 'T'}

// storeFormatVersion is the container format generation. Version 2 added
// the format byte itself plus a per-release identity frame (CRC32 and
// length, base included) that Load verifies while replaying the chain, so
// a bit-flip that still decodes and applies is caught instead of being
// silently accepted.
const storeFormatVersion = 2

// Save serializes the store: magic, format version, version count, base
// image, the identity frame (CRC32 + length of every release), then the
// delta from each version to the next in the ordered wire format — the
// same container for a plain and a chunked store of the same versions. A
// chunked store reads the base image back from its chunks.
func (s *Store) Save() ([]byte, error) {
	s.mu.RLock()
	rels := s.releases // immutable elements: valid after the lock drops
	s.mu.RUnlock()
	var buf bytes.Buffer
	buf.Write(storeMagic[:])
	buf.WriteByte(storeFormatVersion)
	writeUvarint(&buf, uint64(len(rels)))
	writeUvarint(&buf, uint64(rels[0].length))
	if s.chunked {
		buf.Grow(int(rels[0].length))
		base, err := chunk.Materialize(buf.AvailableBuffer(), rels[0].recipe, s.cs)
		if err != nil {
			return nil, fmt.Errorf("store version 0: %w", err)
		}
		buf.Write(base)
	} else {
		buf.Write(s.base)
	}
	var id [4]byte
	for _, r := range rels {
		binary.LittleEndian.PutUint32(id[:], r.crc)
		buf.Write(id[:])
		writeUvarint(&buf, uint64(r.length))
	}
	for k := 1; k < len(rels); k++ {
		d, err := s.compose(k-1, k)
		if err != nil {
			return nil, err
		}
		// Length-prefix each delta: the codec decoder buffers its reader,
		// so deltas must be isolated when decoding from one stream.
		var enc bytes.Buffer
		if _, err := codec.Encode(&enc, d, codec.FormatOrdered); err != nil {
			return nil, err
		}
		writeUvarint(&buf, uint64(enc.Len()))
		buf.Write(enc.Bytes())
	}
	return buf.Bytes(), nil
}

// Load restores a store serialized by Save, verifying every replayed
// version against the identity frame recorded by Save. A plain store keeps
// the decoded deltas as its chain; a chunked one ingests each replayed
// version against its predecessor's recipe and keeps no delta. All length
// fields are checked against the remaining input before allocation, so a
// hostile few-byte container cannot demand gigabytes.
func Load(data []byte, opts ...Option) (*Store, error) {
	r := bytes.NewReader(data)
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil || m != storeMagic {
		return nil, ErrCorrupt
	}
	ver, err := r.ReadByte()
	if err != nil || ver != storeFormatVersion {
		return nil, fmt.Errorf("%w: unsupported format version", ErrCorrupt)
	}
	count, err := binary.ReadUvarint(r)
	// Each release carries at least 5 identity bytes, so a count claiming
	// more than the remaining input could describe is hostile.
	if err != nil || count == 0 || count > uint64(r.Len())/5+1 {
		return nil, ErrCorrupt
	}
	baseLen, err := binary.ReadUvarint(r)
	if err != nil || baseLen > uint64(r.Len()) {
		return nil, ErrCorrupt
	}
	base := make([]byte, baseLen)
	if _, err := io.ReadFull(r, base); err != nil {
		return nil, ErrCorrupt
	}
	crcs := make([]uint32, count)
	lengths := make([]int64, count)
	var id [4]byte
	for k := uint64(0); k < count; k++ {
		if _, err := io.ReadFull(r, id[:]); err != nil {
			return nil, fmt.Errorf("%w: identity frame truncated", ErrCorrupt)
		}
		crcs[k] = binary.LittleEndian.Uint32(id[:])
		length, err := binary.ReadUvarint(r)
		if err != nil || length > uint64(1)<<62 {
			return nil, fmt.Errorf("%w: identity frame length", ErrCorrupt)
		}
		lengths[k] = int64(length)
	}
	if crc32.ChecksumIEEE(base) != crcs[0] || int64(len(base)) != lengths[0] {
		return nil, fmt.Errorf("%w: base image fails its stored CRC", ErrCorrupt)
	}
	s := New(base, opts...)
	if err := replay(s, r, base, crcs, lengths); err != nil {
		// A chunked store's recipes pin their chunks, maybe in a shared
		// chunk.Store that outlives this call: unpin every one the failed
		// load ingested, the base's included.
		if s.chunked {
			for _, rel := range s.releases {
				s.cs.ReleaseRecipe(rel.recipe)
			}
		}
		return nil, err
	}
	return s, nil
}

// replay appends the container's versions to s, which holds only the base
// and is not yet shared: each delta in r is decoded, applied to the
// version before it and checked against its recorded identity.
func replay(s *Store, r *bytes.Reader, base []byte, crcs []uint32, lengths []int64) error {
	cur := base
	for k := 1; k < len(crcs); k++ {
		encLen, err := binary.ReadUvarint(r)
		if err != nil || encLen > uint64(r.Len()) {
			return fmt.Errorf("%w: delta %d length", ErrCorrupt, k)
		}
		enc := make([]byte, encLen)
		if _, err := io.ReadFull(r, enc); err != nil {
			return fmt.Errorf("%w: delta %d truncated", ErrCorrupt, k)
		}
		d, _, err := codec.Decode(bytes.NewReader(enc))
		if err != nil {
			return fmt.Errorf("%w: delta %d: %v", ErrCorrupt, k, err)
		}
		next, err := d.Apply(cur)
		if err != nil {
			return fmt.Errorf("%w: delta %d does not apply: %v", ErrCorrupt, k, err)
		}
		if crc32.ChecksumIEEE(next) != crcs[k] || int64(len(next)) != lengths[k] {
			return fmt.Errorf("%w: version %d fails its stored CRC", ErrCorrupt, k)
		}
		rel := release{crc: crcs[k], length: lengths[k]}
		if s.chunked {
			rel.recipe = s.cs.IngestLike(s.ck, next, s.releases[k-1].recipe)
		} else {
			rel.d = d
		}
		s.releases = append(s.releases, rel)
		cur = next
	}
	return nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}
