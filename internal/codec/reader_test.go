package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"

	"ipdelta/internal/delta"
)

// decoded is everything a decode reports: the header, the commands with
// their payload bytes, the wire count and the error class.
type decoded struct {
	hdr  Header
	cmds []delta.Command
	n    int64
	err  string // error class, "" on success
}

// errClass names the sentinel an error wraps, so decodes through different
// readers can be compared without comparing the readers' own messages.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range []error{ErrBadMagic, ErrBadFormat, ErrChecksum, ErrTruncated, ErrNotOrdered, ErrHugeCommand, delta.ErrBadOp} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return "other: " + err.Error()
}

// streamAll decodes r through NextStreaming, reading every payload into
// its command's Data with one io.ReadFull per 64 KiB, so a payload longer
// than the decoder's buffer lands in the slice directly. The slice grows
// as bytes arrive, since a corrupt length is untrusted.
func streamAll(r io.Reader) decoded {
	dec, err := NewDecoder(r)
	if err != nil {
		return decoded{err: errClass(err)}
	}
	return drainStream(dec)
}

// streamReset decodes r like streamAll, on dec reused through Reset.
func streamReset(dec *Decoder, r io.Reader) decoded {
	if err := dec.Reset(r); err != nil {
		return decoded{err: errClass(err)}
	}
	return drainStream(dec)
}

// drainStream reads every command and payload left in dec.
func drainStream(dec *Decoder) decoded {
	out := decoded{hdr: dec.Header()}
	for {
		c, payload, err := dec.NextStreaming()
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = errClass(err)
			break
		}
		for payload != nil && int64(len(c.Data)) < c.Length {
			k := min(c.Length-int64(len(c.Data)), 64<<10)
			c.Data = append(c.Data, make([]byte, k)...)
			if _, err := io.ReadFull(payload, c.Data[int64(len(c.Data))-k:]); err != nil {
				out.err = errClass(err)
				break
			}
		}
		if out.err != "" {
			break
		}
		out.cmds = append(out.cmds, c)
	}
	out.n = dec.r.n
	return out
}

// decodeWhole decodes r through Decode's materializing path.
func decodeWhole(r io.Reader) decoded {
	d, f, n, err := decode(r)
	if err != nil {
		return decoded{n: n, err: errClass(err)}
	}
	return decoded{hdr: Header{Format: f, RefLen: d.RefLen, VersionLen: d.VersionLen}, cmds: d.Commands, n: n}
}

// splitReader hands out its data with the first Read cut after cut bytes
// (or at the caller's buffer, if shorter), then as much as each Read asks.
type splitReader struct {
	data []byte
	cut  int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	if s.cut > 0 && len(p) > s.cut {
		p = p[:s.cut]
	}
	s.cut = 0
	n := copy(p, s.data)
	s.data = s.data[n:]
	return n, nil
}

// readerCase builds a fresh reader over wire.
type readerCase struct {
	name string
	new  func(wire []byte) io.Reader
}

func readerCases() []readerCase {
	cases := []readerCase{
		{"bytes", func(w []byte) io.Reader { return bytes.NewReader(w) }},
		{"one-byte", func(w []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(w)) }},
		{"half", func(w []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(w)) }},
		{"data-err", func(w []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(w)) }},
	}
	for _, cut := range []int{readBufSize - 1, readBufSize, readBufSize + 1} {
		cases = append(cases, readerCase{fmt.Sprintf("split-%d", cut), func(w []byte) io.Reader {
			return &splitReader{data: w, cut: cut}
		}})
	}
	return cases
}

// wideDelta is a write-ordered delta whose copies have every field at
// least 2^14, so each copy's varints are multi-byte, with short ASCII adds
// between them and one add longer than the decoder's buffer near the end.
// ASCII payloads never set a byte's high bit, so a wire byte with it set
// lies inside a varint (or a legacy fixed-width field).
func wideDelta(seed int64) *delta.Delta {
	rng := rand.New(rand.NewSource(seed))
	d := &delta.Delta{RefLen: 1 << 28}
	ascii := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return b
	}
	var at int64
	for k := 0; k < 500; k++ {
		if k == 480 {
			d.Commands = append(d.Commands, delta.NewAdd(at, ascii(2*readBufSize+77)))
			at += 2*readBufSize + 77
		} else if k%7 == 3 {
			l := int64(1 + rng.Intn(40))
			d.Commands = append(d.Commands, delta.NewAdd(at, ascii(int(l))))
			at += l
		}
		l := int64(1<<14 + rng.Intn(1<<20))
		d.Commands = append(d.Commands, delta.NewCopy(1<<14+rng.Int63n(d.RefLen-l-1<<14), at, l))
		at += l
	}
	d.VersionLen = at
	return d
}

// TestDecodeAcrossReaders decodes a delta larger than the decoder's buffer
// in every format through readers that hand out one byte, half the ask,
// data with the final error, or a first read cut around the buffer size,
// and through both the streaming and the materializing path: every decode
// must give the same header, commands, payload bytes and wire count. For
// the varint formats the delta is chosen so the decoder's first buffer
// ends inside a multi-byte varint at each cut.
func TestDecodeAcrossReaders(t *testing.T) {
	for _, f := range allFormats {
		var wire []byte
		for seed := int64(0); ; seed++ {
			if seed == 200 {
				t.Fatalf("%v: no delta puts a multi-byte varint across the buffer edges", f)
			}
			var buf bytes.Buffer
			if _, err := Encode(&buf, wideDelta(seed), f); err != nil {
				t.Fatal(err)
			}
			wire = buf.Bytes()
			// A cut of readBufSize+1 still fills the buffer, so the two
			// buffer edges are readBufSize-1 and readBufSize. The legacy
			// formats' command fields are fixed-width, not varints.
			legacy := f == FormatLegacyOrdered || f == FormatLegacyOffsets
			if legacy || wire[readBufSize-2]&0x80 != 0 && wire[readBufSize-1]&0x80 != 0 {
				break
			}
		}
		want := streamAll(bytes.NewReader(wire))
		if want.err != "" || want.n != int64(len(wire)) {
			t.Fatalf("%v: reference decode: %q after %d of %d bytes", f, want.err, want.n, len(wire))
		}
		for _, rc := range readerCases() {
			for path, decodeFn := range map[string]func(io.Reader) decoded{"stream": streamAll, "whole": decodeWhole} {
				got := decodeFn(rc.new(wire))
				if path == "whole" {
					got.hdr.NumCommands = want.hdr.NumCommands
					got.hdr.ScratchLen = want.hdr.ScratchLen
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v via %s (%s): decode differs from bytes.Reader's (err %q, n %d, %d commands)",
						f, rc.name, path, got.err, got.n, len(got.cmds))
				}
			}
		}
	}
}

// TestDecodeErrorsAcrossReaders truncates a small delta of every format at
// every length and flips each of its bytes in turn: whatever bytes.Reader
// decodes, every other reader must decode to the same result, and a
// truncated delta must always be refused. One Decoder, reused through
// Reset across every input (so most often right after a refused one),
// must decode each input exactly as a fresh one does.
func TestDecodeErrorsAcrossReaders(t *testing.T) {
	var reused Decoder
	small := []*delta.Delta{
		{RefLen: 300, VersionLen: 330, Commands: []delta.Command{
			delta.NewCopy(0, 0, 200),
			delta.NewAdd(200, bytes.Repeat([]byte("z"), 10)),
			delta.NewCopy(100, 210, 120),
		}},
		{RefLen: 16, VersionLen: 16, Commands: []delta.Command{
			delta.NewStash(0, 8),
			delta.NewCopy(8, 0, 8),
			delta.NewUnstash(8, 8),
		}},
	}
	for i, d := range small {
		formats := allFormats
		if i == 1 {
			formats = []Format{FormatScratch}
		}
		for _, f := range formats {
			var buf bytes.Buffer
			if _, err := Encode(&buf, d, f); err != nil {
				t.Fatal(err)
			}
			wire := buf.Bytes()
			var inputs [][]byte
			for n := 0; n < len(wire); n++ {
				inputs = append(inputs, wire[:n])
			}
			for k := range wire {
				flipped := bytes.Clone(wire)
				flipped[k] ^= 0xff
				inputs = append(inputs, flipped)
			}
			for j, in := range inputs {
				want := streamAll(bytes.NewReader(in))
				if j < len(wire) && want.err == "" {
					t.Fatalf("%v: %d-byte prefix of %d decoded", f, j, len(wire))
				}
				if got := streamReset(&reused, bytes.NewReader(in)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v input %d on a reused Decoder: %q after %d bytes, a fresh one %q after %d",
						f, j, got.err, got.n, want.err, want.n)
				}
				for _, rc := range readerCases()[1:] {
					if got := streamAll(rc.new(in)); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v input %d via %s: %q after %d bytes, bytes.Reader %q after %d",
							f, j, rc.name, got.err, got.n, want.err, want.n)
					}
				}
			}
		}
	}
}
