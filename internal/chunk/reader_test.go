package chunk

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// readerFixture ingests a 16 KiB image into small chunks and returns the
// store, the recipe and the materialized image.
func readerFixture(t *testing.T) (*Store, Recipe, []byte) {
	t.Helper()
	ck, _ := NewChunker(Params{Min: 256, Avg: 1024, Max: 4096})
	s := NewStore()
	r := s.IngestAll(ck, randBytes(90, 16<<10))
	img, err := Materialize(nil, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chunks) < 4 {
		t.Fatalf("fixture has %d chunks; it needs several boundaries", len(r.Chunks))
	}
	return s, r, img
}

// TestReaderMatchesMaterialize: every read equals the matching slice of
// Materialize's output — reads starting and ending at each chunk boundary
// and one byte either side, single bytes across the image, and the whole
// image at once.
func TestReaderMatchesMaterialize(t *testing.T) {
	s, r, img := readerFixture(t)
	rd := NewReader(r, s)
	if rd.Size() != int64(len(img)) {
		t.Fatalf("Size = %d, want %d", rd.Size(), len(img))
	}
	size := int64(len(img))
	check := func(lo, hi int64) {
		t.Helper()
		if lo < 0 || hi > size || lo >= hi {
			return
		}
		p := make([]byte, hi-lo)
		n, err := rd.ReadAt(p, lo)
		if n != len(p) || (err != nil && !(err == io.EOF && hi == size)) {
			t.Fatalf("ReadAt [%d, %d): n = %d, err = %v", lo, hi, n, err)
		}
		if !bytes.Equal(p, img[lo:hi]) {
			t.Fatalf("ReadAt [%d, %d) differs from the materialized image", lo, hi)
		}
	}
	var boundaries []int64
	var off int64
	for _, c := range r.Chunks {
		boundaries = append(boundaries, off)
		off += c.Length
	}
	boundaries = append(boundaries, off)
	for k, b := range boundaries {
		for _, lo := range []int64{b - 1, b, b + 1} {
			check(lo, lo+1)
			check(lo, lo+300)
			if k+2 < len(boundaries) {
				for _, hi := range []int64{boundaries[k+2] - 1, boundaries[k+2], boundaries[k+2] + 1} {
					check(lo, hi)
				}
			}
		}
	}
	for lo := int64(0); lo < size; lo += 97 {
		check(lo, lo+1)
	}
	check(0, size)
}

// TestReaderRejectsContradictingChunk: content of the wrong CRC or the
// wrong length is an identity error, never returned as read bytes.
func TestReaderRejectsContradictingChunk(t *testing.T) {
	s, r, _ := readerFixture(t)
	for _, tc := range []struct {
		name string
		src  Source
	}{
		{"crc", corruptingSource{Store: s, bad: r.Chunks[2].ID}},
		{"length", truncatingSource{Store: s, bad: r.Chunks[2].ID}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd := NewReader(r, tc.src)
			p := make([]byte, 64)
			start := r.Chunks[0].Length + r.Chunks[1].Length
			_, err := rd.ReadAt(p, start)
			if err == nil || !strings.Contains(err.Error(), "contradicts its recipe identity") {
				t.Fatalf("read of the bad chunk: err = %v, want the identity error", err)
			}
			// A read that touches only good chunks still succeeds.
			if _, err := rd.ReadAt(p, 0); err != nil {
				t.Fatalf("read of good chunks: %v", err)
			}
		})
	}
}

// TestReaderErrors: a Source error propagates, and reads out of range
// fail.
func TestReaderErrors(t *testing.T) {
	s, r, img := readerFixture(t)
	boom := errors.New("source down")
	rd := NewReader(r, failingSource{err: boom})
	if _, err := rd.ReadAt(make([]byte, 8), 0); !errors.Is(err, boom) {
		t.Fatalf("source error: err = %v, want %v", err, boom)
	}
	rd = NewReader(r, s)
	size := int64(len(img))
	if _, err := rd.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("read at a negative offset accepted")
	}
	if n, err := rd.ReadAt(make([]byte, 1), size); n != 0 || err == nil {
		t.Fatalf("read at the end: n = %d, err = %v; want 0 and an error", n, err)
	}
	if n, err := rd.ReadAt(make([]byte, 1), size+100); n != 0 || err == nil {
		t.Fatalf("read past the end: n = %d, err = %v; want 0 and an error", n, err)
	}
	p := make([]byte, 10)
	if n, err := rd.ReadAt(p, size-4); n != 4 || err != io.EOF || !bytes.Equal(p[:4], img[size-4:]) {
		t.Fatalf("read across the end: n = %d, err = %v; want the last 4 bytes and io.EOF", n, err)
	}
	if got := NewReader(Recipe{}, s).Size(); got != 0 {
		t.Fatalf("empty recipe: Size = %d", got)
	}
}

// truncatingSource serves chunks from a store but drops the last byte of
// the chunk with the given ID.
type truncatingSource struct {
	*Store
	bad ID
}

func (c truncatingSource) Chunk(id ID) ([]byte, error) {
	data, err := c.Store.Chunk(id)
	if err != nil || id != c.bad {
		return data, err
	}
	return data[:len(data)-1], nil
}

// failingSource resolves no chunk.
type failingSource struct{ err error }

func (f failingSource) Chunk(ID) ([]byte, error) { return nil, f.err }
