package chunk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
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
// or anything else that can resolve an ID, such as a remote peer.
// Returned slices are shared and must be treated as read-only.
// A Source must be safe for concurrent use: the recipe differ resolves
// the chunks of different runs in parallel.
type Source interface {
	Chunk(id ID) ([]byte, error)
}

// Materialize reconstructs the file a recipe describes, appending to dst
// (pass nil to allocate). Every chunk is verified against its recorded
// length and CRC, so a corrupt or substituted chunk is caught here
// rather than surfacing as silently wrong content.
//
// It makes two passes (DESIGN.md §13). The first resolves every chunk and
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
			return nil, errIdentity("materialize", k, c)
		}
		chunks[k] = data
		total += len(data)
	}
	dst = slices.Grow(dst, total)
	for k, data := range chunks {
		if crc32.ChecksumIEEE(data) != r.Chunks[k].CRC {
			return nil, errIdentity("materialize", k, r.Chunks[k])
		}
		dst = append(dst, data...)
	}
	return dst, nil
}

// errIdentity reports that chunk k's content contradicts its recipe entry.
func errIdentity(op string, k int, c Ref) error {
	return fmt.Errorf("chunk: %s chunk %d (%s): content contradicts its recipe identity", op, k, c.ID)
}

// Reader reads the file a recipe describes by byte range, resolving only
// the chunks a read touches, so a caller that needs a few ranges of a
// large version never materializes the rest. Every chunk a read touches
// is checked against its recipe length and CRC, as Materialize checks
// it: a corrupt or substituted chunk is an error, never wrong bytes. A
// Reader is safe for concurrent use when its Source is.
type Reader struct {
	r    Recipe
	src  Source
	ends []int64 // ends[k] is the offset one past chunk k
}

// NewReader returns a Reader over the file r describes, with chunk
// contents from src. It costs one pass over the recipe and no chunk
// lookup.
func NewReader(r Recipe, src Source) *Reader {
	ends := make([]int64, len(r.Chunks))
	var off int64
	for k, c := range r.Chunks {
		off += c.Length
		ends[k] = off
	}
	return &Reader{r: r, src: src, ends: ends}
}

// Size returns the described file's length in bytes.
func (rd *Reader) Size() int64 {
	if len(rd.ends) == 0 {
		return 0
	}
	return rd.ends[len(rd.ends)-1]
}

// ReadAt reads len(p) bytes at off, following io.ReaderAt: a read that
// reaches the end of the file returns io.EOF with the bytes it read, and
// a read at or past the end reads nothing.
func (rd *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("chunk: read at negative offset %d", off)
	}
	// The first chunk that ends past off holds its byte.
	k := sort.Search(len(rd.ends), func(k int) bool { return rd.ends[k] > off })
	n := 0
	for ; n < len(p) && k < len(rd.ends); k++ {
		data, err := rd.chunk(k)
		if err != nil {
			return n, err
		}
		start := rd.ends[k] - int64(len(data))
		n += copy(p[n:], data[off+int64(n)-start:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// chunk resolves chunk k and checks it against its recipe identity.
func (rd *Reader) chunk(k int) ([]byte, error) {
	c := rd.r.Chunks[k]
	data, err := rd.src.Chunk(c.ID)
	if err != nil {
		return nil, fmt.Errorf("chunk: read chunk %d (%s): %w", k, c.ID, err)
	}
	if int64(len(data)) != c.Length || crc32.ChecksumIEEE(data) != c.CRC {
		return nil, errIdentity("read", k, c)
	}
	return data, nil
}
