package codec

import (
	"bytes"
	"reflect"
	"testing"
	"testing/iotest"

	"ipdelta/internal/delta"
)

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic,
// never allocate absurdly, and anything it accepts must re-encode to a
// decodable delta with identical commands.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of every format.
	d := &delta.Delta{
		RefLen:     64,
		VersionLen: 80,
		Commands: []delta.Command{
			delta.NewCopy(0, 0, 40),
			delta.NewAdd(40, bytes.Repeat([]byte("z"), 8)),
			delta.NewCopy(8, 48, 32),
		},
	}
	for _, format := range allFormats {
		var buf bytes.Buffer
		if _, err := Encode(&buf, d, format); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A scratch-format seed with stash/unstash commands.
	sd := &delta.Delta{
		RefLen:     16,
		VersionLen: 16,
		Commands: []delta.Command{
			delta.NewStash(0, 8),
			delta.NewCopy(8, 0, 8),
			delta.NewUnstash(8, 8),
		},
	}
	var sbuf bytes.Buffer
	if _, err := Encode(&sbuf, sd, FormatScratch); err != nil {
		f.Fatal(err)
	}
	f.Add(sbuf.Bytes())
	f.Add([]byte("IPD\x01garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, format, err := Decode(bytes.NewReader(data))
		// The decoder's buffering must not show: a reader that hands out
		// one byte per Read gives the same result.
		slow, slowFormat, slowErr := Decode(iotest.OneByteReader(bytes.NewReader(data)))
		if (err == nil) != (slowErr == nil) {
			t.Fatalf("bytes.Reader: %v, one-byte reader: %v", err, slowErr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if slowFormat != format || !reflect.DeepEqual(slow, got) {
			t.Fatalf("one-byte reader decoded %v %d commands, bytes.Reader %v %d", slowFormat, len(slow.Commands), format, len(got.Commands))
		}
		// Accepted input: the delta must re-encode and decode to the same
		// commands (when it validates; decoding does not enforce command
		// semantics like coverage).
		if got.Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := Encode(&buf, got, format); err != nil {
			t.Fatalf("re-encode of accepted delta failed: %v", err)
		}
		again, f2, err := Decode(&buf)
		if err != nil || f2 != format {
			t.Fatalf("re-decode failed: %v %v", f2, err)
		}
		if len(again.Commands) < len(got.Commands) {
			// Legacy formats may split adds, never merge them.
			t.Fatalf("command count shrank: %d -> %d", len(got.Commands), len(again.Commands))
		}
	})
}

// FuzzDecoderStreaming checks the streaming decoder path on arbitrary
// input: a one-byte reader, and a Decoder reused through Reset right after
// a truncated stream and right after one abandoned inside its first
// command, must decode exactly what a fresh Decoder over bytes.Reader does.
func FuzzDecoderStreaming(f *testing.F) {
	d := &delta.Delta{RefLen: 8, VersionLen: 10, Commands: []delta.Command{
		delta.NewAdd(0, []byte("hi")),
		delta.NewCopy(0, 2, 8),
	}}
	for _, format := range allFormats {
		var buf bytes.Buffer
		if _, err := Encode(&buf, d, format); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := streamAll(bytes.NewReader(data))
		slow := streamAll(iotest.OneByteReader(bytes.NewReader(data)))
		if (got.err == "") != (slow.err == "") || got.hdr.Format != slow.hdr.Format || !reflect.DeepEqual(got.cmds, slow.cmds) {
			t.Fatalf("one-byte reader decoded %v %d commands (err %q), bytes.Reader %v %d (err %q)",
				slow.hdr.Format, len(slow.cmds), slow.err, got.hdr.Format, len(got.cmds), got.err)
		}
		var dec Decoder
		streamReset(&dec, bytes.NewReader(data[:len(data)/2]))
		if again := streamReset(&dec, bytes.NewReader(data)); !reflect.DeepEqual(again, got) {
			t.Fatalf("after a truncated stream, a reused Decoder decoded %d commands (err %q), a fresh one %d (err %q)",
				len(again.cmds), again.err, len(got.cmds), got.err)
		}
		if dec.Reset(bytes.NewReader(data)) == nil {
			_, _, _ = dec.NextStreaming() // leaves an add payload unread
		}
		if again := streamReset(&dec, bytes.NewReader(data)); !reflect.DeepEqual(again, got) {
			t.Fatalf("after an abandoned stream, a reused Decoder decoded %d commands (err %q), a fresh one %d (err %q)",
				len(again.cmds), again.err, len(got.cmds), got.err)
		}
	})
}
