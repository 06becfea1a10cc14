package codec

import (
	"fmt"
	"io"

	"ipdelta/internal/delta"
)

// NextStreaming returns the next command without materializing add data in
// memory: for an add command, the returned command has nil Data and the
// returned reader streams exactly Length payload bytes. The reader must be
// fully consumed (or the decoder Skip'ped) before the next call; for copy
// commands the reader is nil.
//
// This is the API a limited-memory device uses: combined with
// delta.ApplyInPlace-style chunked writes, a delta of any size is applied
// with O(1) working memory.
func (d *Decoder) NextStreaming() (delta.Command, io.Reader, error) {
	if d.pending > 0 {
		return delta.Command{}, nil, fmt.Errorf("codec: previous add payload not consumed (%d bytes left)", d.pending)
	}
	var c delta.Command
	d.streaming = true
	err := d.decodeNext(&c)
	d.streaming = false
	if err != nil {
		return delta.Command{}, nil, err
	}
	if c.Op == delta.OpAdd {
		d.pending = c.Length
		d.payload.d = d
		return c, &d.payload, nil
	}
	return c, nil, nil
}

// payloadReader streams the pending add payload through the decoder's CRC.
// Each Decoder embeds one, handed out by every NextStreaming call.
type payloadReader struct {
	d *Decoder
}

// Read implements io.Reader over the remaining payload bytes.
func (p *payloadReader) Read(b []byte) (int, error) {
	if p.d.pending == 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > p.d.pending {
		b = b[:p.d.pending]
	}
	if err := p.d.r.readFull(b); err != nil {
		return 0, fmt.Errorf("%w: add payload", ErrTruncated)
	}
	p.d.pending -= int64(len(b))
	return len(b), nil
}
