// Archival tier: cold delta-chain segments are compacted into
// skip-anchor + reverse-delta blobs and striped across an erasure-coded
// node group (internal/archive), so the version history survives node
// loss and silent shard corruption while hot-head materialization stays
// shallow (DESIGN.md §12).
//
// Layout: the history [0..upTo] is cut into fixed segments of segSize
// versions. Segment g covers [g·segSize, (g+1)·segSize−1] and is encoded
// as one blob — the segment's newest image (the "skip anchor": any read
// jumps straight there without replaying the forward chain) plus reverse
// deltas walking down to the segment's oldest version, with the identity
// (CRC32 + length) of every covered version. The blob becomes stripe g of
// the archive: k data + m parity shards across k+m nodes. Reading an
// archived version therefore costs one (possibly degraded) stripe read
// plus at most segSize−1 reverse delta applications, and the store keeps
// a copy of the image at the archive boundary so head materializations
// replay only the hot tail.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ipdelta/internal/archive"
	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/obs"
)

// ErrNoArchive reports Store.Archive on a store without an attached tier,
// or on a chunked store, which has no delta chain to archive.
var ErrNoArchive = errors.New("store: no archive tier attached")

// DefaultArchiveSegment is the number of versions compacted into one
// archive stripe when WithArchiveSegment is not given.
const DefaultArchiveSegment = 8

// WithArchive attaches an archival tier to a plain store: Store.Archive
// stripes cold chain segments into a, and reads of archived versions are
// served from it — transparently reconstructing from any k of n shards —
// through the store's cache. A chunked store has no chain, so its Archive
// reports ErrNoArchive.
func WithArchive(a *archive.Archive) Option {
	return func(s *Store) { s.arch = a }
}

// WithArchiveSegment sets how many versions one archive stripe of a
// plain store covers (default DefaultArchiveSegment). Smaller segments
// mean shallower reverse replays per read; larger ones amortize the
// stripe overhead over more versions. n <= 0 keeps the default.
func WithArchiveSegment(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.segSize = n
		}
	}
}

// ArchivedUpTo returns the highest version currently served by the
// archival tier, or -1 when nothing is archived.
func (s *Store) ArchivedUpTo() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.archUpTo
}

// ArchiveTier returns the attached archive (nil without WithArchive), for
// scrub/repair passes and fault injection by chaos harnesses.
func (s *Store) ArchiveTier() *archive.Archive { return s.arch }

// Archive stripes every complete cold segment up to version upTo into the
// archival tier and advances the archive boundary, keeping the image at
// the boundary as the hot chain's skip anchor. Only whole segments are
// archived, so the effective boundary is upTo rounded down to segment
// granularity; it is returned (and is -1 when not even one segment
// fits). Archiving is incremental — segments below an earlier boundary
// are not rebuilt — and idempotent per segment. The forward chain is
// retained for Save and delta composition; what Archive adds is
// durability (any version survives up to m lost or corrupted shards per
// stripe) and the shallow read path. A chunked store has no chain to
// archive and reports ErrNoArchive.
func (s *Store) Archive(upTo int) (int, error) {
	if s.arch == nil {
		return -1, ErrNoArchive
	}
	if s.chunked {
		return -1, fmt.Errorf("%w: a chunked store holds recipes, not a delta chain", ErrNoArchive)
	}
	// appendMu serializes archiving with appends (and other archivings):
	// the chain snapshot below upTo is immutable either way, but the
	// boundary/anchor pair must move atomically with respect to both.
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if n := s.NumVersions(); upTo < 0 || upTo >= n {
		return s.ArchivedUpTo(), fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, upTo, n)
	}
	fullSegs := (upTo + 1) / s.segSize
	newUpTo := fullSegs*s.segSize - 1
	cur := s.ArchivedUpTo()
	if newUpTo <= cur {
		return cur, nil
	}
	var span obs.Span
	if s.met != nil {
		span = s.met.archiveBuild.Start()
	}
	var anchor []byte
	for seg := (cur + 1) / s.segSize; seg < fullSegs; seg++ {
		lo, hi := seg*s.segSize, (seg+1)*s.segSize-1
		blob, segAnchor, err := s.buildSegment(lo, hi)
		if err != nil {
			return s.ArchivedUpTo(), err
		}
		if err := s.arch.Put(uint64(seg), blob); err != nil {
			return s.ArchivedUpTo(), err
		}
		if s.met != nil {
			s.met.archivedSegs.Inc()
		}
		if hi == newUpTo {
			anchor = segAnchor
		}
	}
	s.mu.Lock()
	s.archUpTo = newUpTo
	s.anchor = anchor
	s.mu.Unlock()
	if s.met != nil {
		span.End()
	}
	return newUpTo, nil
}

// buildSegment materializes versions [lo..hi] and encodes the segment
// blob: skip anchor (image hi), per-version identities, and reverse
// deltas hi→hi−1 … lo+1→lo. Returns the blob and the anchor image (which
// the caller may keep; it aliases nothing).
func (s *Store) buildSegment(lo, hi int) ([]byte, []byte, error) {
	imgs := make([][]byte, hi-lo+1)
	first, err := s.Version(lo)
	if err != nil {
		return nil, nil, err
	}
	imgs[0] = first
	s.mu.RLock()
	chain := s.releases[lo+1 : hi+1]
	ids := make([]release, hi-lo+1)
	copy(ids, s.releases[lo:hi+1])
	s.mu.RUnlock()
	for v := range chain {
		next, err := chain[v].d.Apply(imgs[v])
		if err != nil {
			return nil, nil, fmt.Errorf("store archive segment [%d..%d]: %w", lo, hi, err)
		}
		imgs[v+1] = next
	}
	anchor := append([]byte(nil), imgs[len(imgs)-1]...)

	var buf bytes.Buffer
	writeUvarint(&buf, uint64(lo))
	writeUvarint(&buf, uint64(hi))
	writeUvarint(&buf, uint64(len(anchor)))
	buf.Write(anchor)
	var id [4]byte
	for _, r := range ids {
		binary.LittleEndian.PutUint32(id[:], r.crc)
		buf.Write(id[:])
		writeUvarint(&buf, uint64(r.length))
	}
	for v := len(imgs) - 1; v > 0; v-- {
		rd, err := s.algo.Diff(imgs[v], imgs[v-1])
		if err != nil {
			return nil, nil, fmt.Errorf("store archive segment [%d..%d]: %w", lo, hi, err)
		}
		var enc bytes.Buffer
		if _, err := codec.Encode(&enc, rd, codec.FormatOrdered); err != nil {
			return nil, nil, err
		}
		writeUvarint(&buf, uint64(enc.Len()))
		buf.Write(enc.Bytes())
	}
	return buf.Bytes(), anchor, nil
}

// releaseID is one version's identity inside a segment blob.
type releaseID struct {
	crc    uint32
	length int64
}

// ArchiveSegment is one decoded cold-chain segment: the skip anchor
// (image of version Hi) plus reverse deltas walking down to Lo.
type ArchiveSegment struct {
	Lo, Hi  int
	anchor  []byte
	ids     []releaseID    // Lo..Hi
	rdeltas []*delta.Delta // index 0: Hi→Hi−1, 1: Hi−1→Hi−2, …
}

// DecodeArchiveSegment parses a segment blob produced by Store.Archive.
// Every length field is bounds-checked against the remaining input, so a
// corrupt blob errors instead of over-allocating.
func DecodeArchiveSegment(blob []byte) (*ArchiveSegment, error) {
	r := bytes.NewReader(blob)
	lo, err1 := binary.ReadUvarint(r)
	hi, err2 := binary.ReadUvarint(r)
	// Each covered version occupies at least 5 identity bytes, so a
	// range wider than the remaining input is hostile; the 2^40 cap also
	// keeps int conversions safe on every platform.
	if err1 != nil || err2 != nil || hi < lo || hi > 1<<40 || hi-lo >= uint64(r.Len())/5+1 {
		return nil, fmt.Errorf("%w: segment header", ErrCorrupt)
	}
	anchorLen, err := binary.ReadUvarint(r)
	if err != nil || anchorLen > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: segment anchor length", ErrCorrupt)
	}
	g := &ArchiveSegment{
		Lo:     int(lo),
		Hi:     int(hi),
		anchor: make([]byte, anchorLen),
	}
	if _, err := io.ReadFull(r, g.anchor); err != nil {
		return nil, fmt.Errorf("%w: segment anchor", ErrCorrupt)
	}
	count := int(hi-lo) + 1
	g.ids = make([]releaseID, count)
	var id [4]byte
	for v := 0; v < count; v++ {
		if _, err := io.ReadFull(r, id[:]); err != nil {
			return nil, fmt.Errorf("%w: segment identities", ErrCorrupt)
		}
		length, err := binary.ReadUvarint(r)
		if err != nil || length > uint64(1)<<62 {
			return nil, fmt.Errorf("%w: segment identities", ErrCorrupt)
		}
		g.ids[v] = releaseID{crc: binary.LittleEndian.Uint32(id[:]), length: int64(length)}
	}
	if crc32.ChecksumIEEE(g.anchor) != g.ids[count-1].crc ||
		int64(len(g.anchor)) != g.ids[count-1].length {
		return nil, fmt.Errorf("%w: segment anchor fails its CRC", ErrCorrupt)
	}
	g.rdeltas = make([]*delta.Delta, count-1)
	for v := range g.rdeltas {
		encLen, err := binary.ReadUvarint(r)
		if err != nil || encLen > uint64(r.Len()) {
			return nil, fmt.Errorf("%w: segment delta length", ErrCorrupt)
		}
		enc := make([]byte, encLen)
		if _, err := io.ReadFull(r, enc); err != nil {
			return nil, fmt.Errorf("%w: segment delta truncated", ErrCorrupt)
		}
		d, _, err := codec.Decode(bytes.NewReader(enc))
		if err != nil {
			return nil, fmt.Errorf("%w: segment delta: %v", ErrCorrupt, err)
		}
		g.rdeltas[v] = d
	}
	return g, nil
}

// Version materializes version i (Lo <= i <= Hi) from the segment: the
// anchor for Hi, otherwise reverse replay down from the anchor, verified
// against the version's recorded identity.
func (g *ArchiveSegment) Version(i int) ([]byte, error) {
	if i < g.Lo || i > g.Hi {
		return nil, fmt.Errorf("%w: %d not in segment [%d..%d]", ErrNoSuchVersion, i, g.Lo, g.Hi)
	}
	cur := g.anchor
	for v := g.Hi; v > i; v-- {
		next, err := g.rdeltas[g.Hi-v].Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("%w: reverse delta %d→%d: %v", ErrCorrupt, v, v-1, err)
		}
		cur = next
	}
	want := g.ids[i-g.Lo]
	if crc32.ChecksumIEEE(cur) != want.crc || int64(len(cur)) != want.length {
		return nil, fmt.Errorf("%w: version %d fails its stored CRC", ErrCorrupt, i)
	}
	if i == g.Hi {
		// The anchor itself is shared segment state; hand out a copy.
		cur = append([]byte(nil), cur...)
	}
	return cur, nil
}

// Replays reports how many reverse deltas a read of version i applies.
func (g *ArchiveSegment) Replays(i int) int { return g.Hi - i }

// tierRead serves version i from the archival tier when i is at or below
// the archive boundary. A tier that cannot serve (too many shards lost,
// or a decode failure) falls back to the retained chain — counted, so
// operators see the archive failing even while reads keep succeeding.
func (s *Store) tierRead(i int) ([]byte, bool) {
	if s.arch == nil {
		return nil, false
	}
	s.mu.RLock()
	upTo := s.archUpTo
	s.mu.RUnlock()
	if i > upTo {
		return nil, false
	}
	var span obs.Span
	if s.met != nil {
		span = s.met.archiveRead.Start()
	}
	img, replays, err := s.readFromArchive(i)
	if s.met != nil {
		span.End()
	}
	if err != nil {
		if s.met != nil {
			s.met.archiveFalls.Inc()
		}
		return nil, false
	}
	if s.met != nil {
		s.met.archiveReads.Inc()
		s.met.archiveRDepth.Add(int64(replays))
	}
	return img, true
}

// readFromArchive fetches version i's stripe (reconstructing through the
// erasure code as needed), decodes the segment, and replays down to i,
// cross-checking the result against the store's own identity record.
func (s *Store) readFromArchive(i int) ([]byte, int, error) {
	blob, err := s.arch.Get(uint64(i / s.segSize))
	if err != nil {
		return nil, 0, err
	}
	g, err := DecodeArchiveSegment(blob)
	if err != nil {
		return nil, 0, err
	}
	img, err := g.Version(i)
	if err != nil {
		return nil, 0, err
	}
	s.mu.RLock()
	rel := s.releases[i]
	s.mu.RUnlock()
	if crc32.ChecksumIEEE(img) != rel.crc || int64(len(img)) != rel.length {
		return nil, 0, fmt.Errorf("%w: archived version %d disagrees with the store", ErrCorrupt, i)
	}
	return img, g.Replays(i), nil
}
