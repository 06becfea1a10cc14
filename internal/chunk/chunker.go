// Package chunk implements content-defined chunking and a bounded,
// content-addressed chunk store — the substrate for diffing
// multi-GB images in bounded memory and deduplicating identical content
// across versions and tenants (ROADMAP "Content-defined chunking").
//
// The chunker is a Gear rolling-hash cutter with min/avg/max size bounds
// and FastCDC-style normalization (arXiv:2210.04623 motivates the
// flash/mobile scenario; the cut-point locality argument is the classical
// CDC one): a cut decision at offset i depends only on the bytes of the
// current chunk up to i, never on anything before the previous cut, so an
// insert or delete perturbs cut points only until the two streams next
// agree on a boundary — typically within a couple of chunks. Everything
// the dedup layer wins rests on that locality, and TestChunkerLocality
// property-tests it directly.
//
// A version of a file is represented as a Recipe: the ordered list of its
// chunk IDs and lengths. Identical chunks appearing in any number of
// versions (or stores) are stored once, refcounted, in a Store.
package chunk

import "errors"

// Params bounds the chunk sizes a Chunker may produce. Avg must be a
// power of two; Min <= Avg <= Max. The zero value selects the defaults.
type Params struct {
	// Min is the minimum chunk size in bytes (default 2 KiB). No cut is
	// considered before Min bytes, which also lower-bounds the per-chunk
	// metadata overhead.
	Min int
	// Avg is the target average chunk size in bytes (default 8 KiB);
	// must be a power of two.
	Avg int
	// Max is the maximum chunk size in bytes (default 64 KiB). A cut is
	// forced at Max, so a chunk always fits a bounded buffer.
	Max int
}

// Default chunk-size bounds: 2 KiB / 8 KiB / 64 KiB.
const (
	DefaultMin = 2 << 10
	DefaultAvg = 8 << 10
	DefaultMax = 64 << 10
)

// ErrParams reports invalid chunker parameters.
var ErrParams = errors.New("chunk: invalid params (need 64 <= Min <= Avg <= Max, Avg a power of two)")

// withDefaults fills zero fields and validates.
func (p Params) withDefaults() (Params, error) {
	if p.Min == 0 && p.Avg == 0 && p.Max == 0 {
		return Params{Min: DefaultMin, Avg: DefaultAvg, Max: DefaultMax}, nil
	}
	if p.Min < 64 || p.Min > p.Avg || p.Avg > p.Max || p.Avg&(p.Avg-1) != 0 {
		return Params{}, ErrParams
	}
	return p, nil
}

// gear is the byte-to-hash lookup table of the Gear rolling hash,
// generated deterministically (splitmix64) so chunk boundaries — and
// therefore chunk IDs — are stable across builds and machines.
var gear = computeGear()

func computeGear() (g [256]uint64) {
	// splitmix64 with a fixed seed; any well-mixed constant table works,
	// it only must never change once recipes are persisted.
	x := uint64(0x9E3779B97F4A7C15)
	for i := range g {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		g[i] = z ^ (z >> 31)
	}
	return g
}

// Chunker finds content-defined cut points under the configured bounds.
// It is stateless between chunks (every cut decision restarts at the
// chunk's first byte), so one Chunker may be shared by any number of
// goroutines.
type Chunker struct {
	p Params
	// Normalized cut masks (FastCDC): before Avg the hard mask (two bits
	// stricter than 1/Avg) suppresses early cuts, after Avg the easy mask
	// (two bits looser) hurries late ones. Sizes concentrate around Avg
	// and far fewer chunks hit the forced Max cut — forced cuts are the
	// one boundary kind that is *not* content-defined, so normalization
	// directly strengthens the locality property.
	maskHard uint64
	maskEasy uint64
}

// NewChunker returns a chunker for the given bounds (zero Params for the
// defaults).
func NewChunker(p Params) (*Chunker, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	bits := uint(0)
	for 1<<bits < p.Avg {
		bits++
	}
	hard, easy := bits+2, bits-2
	if hard > 63 {
		hard = 63
	}
	return &Chunker{
		p:        p,
		maskHard: maskTop(hard),
		maskEasy: maskTop(easy),
	}, nil
}

// maskTop returns a mask selecting the top n bits of a uint64. The Gear
// hash shifts left each step, so the top bits mix the most window bytes.
//
//ipvet:allocfree
func maskTop(n uint) uint64 {
	return ^uint64(0) << (64 - n)
}

// Params returns the effective bounds.
func (c *Chunker) Params() Params { return c.p }

// Cut returns the length of the first chunk of data: the first
// content-defined boundary, the forced cut at Max, or all of data when it
// runs out first.
//
//ipvet:allocfree
func (c *Chunker) Cut(data []byte) int {
	if len(data) <= c.p.Min {
		return len(data)
	}
	end := len(data)
	if end >= c.p.Max {
		end = c.p.Max
	}
	mid := c.p.Avg
	if mid > end {
		mid = end
	}
	var h uint64
	i := c.p.Min
	for ; i < mid; i++ {
		h = h<<1 + gear[data[i]]
		if h&c.maskHard == 0 {
			return i + 1
		}
	}
	for ; i < end; i++ {
		h = h<<1 + gear[data[i]]
		if h&c.maskEasy == 0 {
			return i + 1
		}
	}
	return end
}

// Split cuts data into consecutive chunks and calls emit for each one, in
// order. Emitted slices alias data and are valid only during the
// callback. Split itself performs no allocations.
func (c *Chunker) Split(data []byte, emit func(chunk []byte)) {
	for len(data) > 0 {
		n := c.Cut(data)
		emit(data[:n:n])
		data = data[n:]
	}
}
