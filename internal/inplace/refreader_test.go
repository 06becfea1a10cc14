package inplace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
)

// recordingReader serves a reference from memory and records every read.
type recordingReader struct {
	*bytes.Reader
	reads [][2]int64 // [off, off+len)
	err   error      // when set, every read fails with it
}

func (r *recordingReader) ReadAt(p []byte, off int64) (int, error) {
	r.reads = append(r.reads, [2]int64{off, off + int64(len(p))})
	if r.err != nil {
		return 0, r.err
	}
	return r.Reader.ReadAt(p, off)
}

func compactBytes(t *testing.T, d *delta.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatCompact); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConvertAtReadsOnlyConvertedRanges: converting through a RefReader
// gives the bytes the []byte entry point gives, and reads exactly the
// source range of each converted copy.
func TestConvertAtReadsOnlyConvertedRanges(t *testing.T) {
	chain := corpus.RecordChain(11, 256<<10, 3)
	d, err := diff.NewLinear().Diff(chain[0], chain[2])
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Convert(d, chain[0])
	if err != nil {
		t.Fatal(err)
	}
	rr := &recordingReader{Reader: bytes.NewReader(chain[0])}
	got, st, err := ConvertAt(d, rr)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConvertedBytes == 0 {
		t.Fatal("the pair converts no copy")
	}
	if !bytes.Equal(compactBytes(t, got), compactBytes(t, want)) {
		t.Fatal("ConvertAt differs from Convert")
	}
	var read int64
	for _, r := range rr.reads {
		read += r[1] - r[0]
	}
	if read != st.ConvertedBytes || len(rr.reads) != st.ConvertedCopies {
		t.Fatalf("read %d bytes in %d reads, want the %d converted bytes in %d reads",
			read, len(rr.reads), st.ConvertedBytes, st.ConvertedCopies)
	}
}

// TestConvertAtNoConversionReadsNothing: a delta with no cycle converts
// no copy and must not touch the reference.
func TestConvertAtNoConversionReadsNothing(t *testing.T) {
	ref := bytes.Repeat([]byte("abcdefgh"), 512)
	fill := bytes.Repeat([]byte{'z'}, 1024)
	d := &delta.Delta{RefLen: int64(len(ref)), VersionLen: int64(len(ref)), Commands: []delta.Command{
		delta.NewCopy(2048, 0, 1024), delta.NewAdd(1024, fill),
		delta.NewCopy(3072, 2048, 1024), delta.NewAdd(3072, fill),
	}}
	rr := &recordingReader{Reader: bytes.NewReader(ref), err: errors.New("must not read")}
	if _, st, err := ConvertAt(d, rr); err != nil || st.ConvertedCopies != 0 {
		t.Fatalf("ConvertAt: stats %+v, err %v", st, err)
	}
	if len(rr.reads) != 0 {
		t.Fatalf("reference read %d times", len(rr.reads))
	}
}

// TestConvertAtErrors: a failing or short reference read and a reference
// of the wrong size are errors, never a delta with wrong add data.
func TestConvertAtErrors(t *testing.T) {
	chain := corpus.RecordChain(11, 64<<10, 3)
	d, err := diff.NewLinear().Diff(chain[0], chain[2])
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("reference unavailable")
	rr := &recordingReader{Reader: bytes.NewReader(chain[0]), err: boom}
	if _, _, err := ConvertAt(d, rr); !errors.Is(err, boom) {
		t.Fatalf("failing reader: err = %v, want %v", err, boom)
	}
	short := &shortReader{size: int64(len(chain[0]))}
	if _, _, err := ConvertAt(d, short); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short reader: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, _, err := ConvertAt(d, bytes.NewReader(chain[0][1:])); err == nil {
		t.Fatal("reference of the wrong size accepted")
	}
}

// shortReader claims size bytes but reads none.
type shortReader struct{ size int64 }

func (s *shortReader) ReadAt([]byte, int64) (int, error) { return 0, nil }
func (s *shortReader) Size() int64                       { return s.size }
