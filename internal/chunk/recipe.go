package chunk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"slices"
)

// ID is the content address of a chunk: its SHA-256. Two chunks share an
// ID exactly when they share content (collision resistance is the dedup
// layer's correctness assumption, the same one every content-addressed
// store makes).
type ID [sha256.Size]byte

// IDOf returns the content address of data.
func IDOf(data []byte) ID { return sha256.Sum256(data) }

// String renders the leading bytes of the address for logs and tests.
func (id ID) String() string { return hex.EncodeToString(id[:8]) }

// Ref is one recipe entry: a chunk's address, its length, and a CRC32 of
// its content. The CRC is deliberately redundant with the ID: verifying
// a materialized chunk against it costs a table-driven pass instead of a
// SHA-256, mirroring the store container's per-release identity frames.
type Ref struct {
	ID     ID
	Length int64
	CRC    uint32
}

// RefOf builds the Ref describing data.
func RefOf(data []byte) Ref {
	return Ref{ID: IDOf(data), Length: int64(len(data)), CRC: crc32.ChecksumIEEE(data)}
}

// Recipe is the chunk-level description of one version of a file: the
// ordered list of its chunks. A version's bytes are the concatenation of
// its chunks' contents; the recipe plus a chunk source reproduces them.
// Recipes are value types and, once built, immutable by convention —
// they are shared between store releases and diff calls.
type Recipe struct {
	Chunks []Ref
}

// Total returns the described file's length in bytes.
func (r Recipe) Total() int64 {
	var n int64
	for _, c := range r.Chunks {
		n += c.Length
	}
	return n
}

// Source supplies chunk contents by address — the read side of a Store,
// or anything else that can resolve an ID (a remote peer, an archive
// tier). Returned slices are shared and must be treated as read-only.
type Source interface {
	Chunk(id ID) ([]byte, error)
}

// Materialize reconstructs the file a recipe describes, appending to dst
// (pass nil to allocate). Every chunk is verified against its recorded
// length and CRC, so a corrupt or substituted chunk is caught here
// rather than surfacing as silently wrong content.
//
// It makes two passes (DESIGN.md §14). The first resolves every chunk and
// checks its length, so dst then grows once, by the byte count actually
// resolved: a recipe that lies about lengths fails before any allocation
// it describes. The second checks each chunk's CRC and copies it.
func Materialize(dst []byte, r Recipe, src Source) ([]byte, error) {
	chunks := make([][]byte, len(r.Chunks))
	total := 0
	for k, c := range r.Chunks {
		data, err := src.Chunk(c.ID)
		if err != nil {
			return nil, fmt.Errorf("chunk: materialize chunk %d (%s): %w", k, c.ID, err)
		}
		if int64(len(data)) != c.Length {
			return nil, errIdentity(k, c)
		}
		chunks[k] = data
		total += len(data)
	}
	dst = slices.Grow(dst, total)
	for k, data := range chunks {
		if crc32.ChecksumIEEE(data) != r.Chunks[k].CRC {
			return nil, errIdentity(k, r.Chunks[k])
		}
		dst = append(dst, data...)
	}
	return dst, nil
}

// errIdentity reports that chunk k's content contradicts its recipe entry.
func errIdentity(k int, c Ref) error {
	return fmt.Errorf("chunk: materialize chunk %d (%s): content contradicts its recipe identity", k, c.ID)
}
