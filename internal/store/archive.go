// Archive export: Store.Archive compacts a plain store's delta chain into
// segment blobs and stripes them across an erasure-coded node group
// (internal/archive), so the version history survives node loss and
// silent shard corruption apart from the store (DESIGN.md §12). The store
// keeps no archive state: the caller holds the archive, the boundary and
// the segment size (ipstore records both in MANIFEST.json), and
// ReadArchived reads a version back from the shards alone.
//
// Layout: the history [0..upTo] is cut into fixed segments of segSize
// versions. Segment g covers [g·segSize, (g+1)·segSize−1] and is encoded
// as one blob — the segment's newest image (the anchor) plus reverse
// deltas walking down to the segment's oldest version, with the identity
// (CRC32 + length) of every covered version. The blob becomes stripe g of
// the archive: k data + m parity shards across k+m nodes. Reading an
// archived version therefore costs one (possibly degraded) stripe read
// plus at most segSize−1 reverse delta applications.
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
)

// DefaultArchiveSegment is the number of versions one archive stripe
// covers unless the caller picks another size.
const DefaultArchiveSegment = 8

// Archive exports versions [0..upTo] of a plain store into a, one stripe
// per whole segment of segSize versions: segment g becomes stripe g. Only
// whole segments are archived, so the boundary is upTo rounded down to
// segment granularity; Archive returns it (-1 when not even one segment
// fits). The store is left as it was, and reads never consult a — the
// archive is a separate, durable copy of the history (any version
// survives up to m lost or corrupted shards per stripe), read back with
// ReadArchived at the same segSize. A chunked store has no delta chain to
// export; it, segSize <= 0 and an out-of-range upTo are rejected before
// anything is written.
func (s *Store) Archive(a *archive.Archive, upTo, segSize int) (int, error) {
	if s.chunked {
		return -1, errors.New("store archive: a chunked store holds recipes, not a delta chain")
	}
	if segSize <= 0 {
		return -1, fmt.Errorf("store archive: segment size %d, want > 0", segSize)
	}
	if n := s.NumVersions(); upTo < 0 || upTo >= n {
		return -1, fmt.Errorf("%w: %d of %d", ErrNoSuchVersion, upTo, n)
	}
	segs := (upTo + 1) / segSize
	span := s.met.archiveBuild.Start()
	for g := 0; g < segs; g++ {
		blob, err := s.buildSegment(g*segSize, (g+1)*segSize-1)
		if err != nil {
			return -1, err
		}
		if err := a.Put(uint64(g), blob); err != nil {
			return -1, err
		}
		s.met.archivedSegs.Inc()
	}
	span.End()
	return segs*segSize - 1, nil
}

// ReadArchived reads version i back from an archive that Store.Archive
// wrote with segment size segSize: it fetches stripe i/segSize
// (reconstructing through the erasure code as needed), decodes the
// segment and replays its reverse deltas down to i, checking the result
// against the version's recorded identity. It also returns how many
// reverse deltas it applied.
func ReadArchived(a *archive.Archive, segSize, i int) ([]byte, int, error) {
	if segSize <= 0 || i < 0 {
		return nil, 0, fmt.Errorf("%w: %d at segment size %d", ErrNoSuchVersion, i, segSize)
	}
	blob, err := a.Get(uint64(i / segSize))
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
	return img, g.Replays(i), nil
}

// buildSegment materializes versions [lo..hi] and encodes the segment
// blob: anchor (image hi), per-version identities, and reverse deltas
// hi→hi−1 … lo+1→lo.
func (s *Store) buildSegment(lo, hi int) ([]byte, error) {
	imgs := make([][]byte, hi-lo+1)
	first, err := s.Version(lo)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("store archive segment [%d..%d]: %w", lo, hi, err)
		}
		imgs[v+1] = next
	}
	anchor := imgs[len(imgs)-1]

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
			return nil, fmt.Errorf("store archive segment [%d..%d]: %w", lo, hi, err)
		}
		var enc bytes.Buffer
		if _, err := codec.Encode(&enc, rd, codec.FormatOrdered); err != nil {
			return nil, err
		}
		writeUvarint(&buf, uint64(enc.Len()))
		buf.Write(enc.Bytes())
	}
	return buf.Bytes(), nil
}

// releaseID is one version's identity inside a segment blob.
type releaseID struct {
	crc    uint32
	length int64
}

// ArchiveSegment is one decoded segment: the anchor (image of version
// Hi) plus reverse deltas walking down to Lo.
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
