package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ipdelta/internal/delta"
)

// Header carries the framing information of an encoded delta file.
type Header struct {
	Format     Format
	RefLen     int64
	VersionLen int64
	// NumCommands is the number of encoded codewords, which may exceed the
	// logical command count for legacy formats that split long adds.
	NumCommands int
	// ScratchLen is the scratch bytes the delta requires; nonzero only for
	// the scratch format.
	ScratchLen int64
}

// Decoder reads a delta file command by command, allowing a receiver to
// apply a delta as it streams in without buffering the whole file. The
// trailing CRC32 is verified when the last command has been read; Next
// reports io.EOF only after a successful verification.
type Decoder struct {
	r    crcReader
	hdr  Header
	left int   // commands still to be read
	next int64 // implicit write offset for ordered formats / compact adds
	done bool  // checksum verified, stream exhausted
	// streaming mode state (see NextStreaming).
	streaming bool
	pending   int64
	payload   payloadReader
	// compact-format section state
	copiesLeft int
	addsLeft   int
}

// NewDecoder reads and validates the header.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := new(Decoder)
	if err := d.Reset(r); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset discards the decoder's state and reads and validates the header
// of a new delta from r, so one Decoder, with its read buffer, decodes
// delta after delta without allocating. It accepts and rejects exactly
// what NewDecoder does; after an error the decoder must be Reset again
// before use.
func (d *Decoder) Reset(r io.Reader) error {
	*d = Decoder{r: crcReader{rd: r}}
	cr := &d.r
	m, err := cr.take(len(magic))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if [4]byte(m) != magic {
		return ErrBadMagic
	}
	fb, err := cr.readByte()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	f := Format(fb)
	if _, err := ParseFormat(f.String()); err != nil {
		return ErrBadFormat
	}
	refLen, err := cr.readUvarint()
	if err != nil {
		return fmt.Errorf("%w: header", ErrTruncated)
	}
	versionLen, err := cr.readUvarint()
	if err != nil {
		return fmt.Errorf("%w: header", ErrTruncated)
	}
	ncmds, err := cr.readUvarint()
	if err != nil {
		return fmt.Errorf("%w: header", ErrTruncated)
	}
	// Header fields are untrusted: reject values that cannot describe a
	// real file before they reach any arithmetic or allocation.
	const maxLen = int64(1) << 56
	if int64(refLen) < 0 || int64(refLen) > maxLen ||
		int64(versionLen) < 0 || int64(versionLen) > maxLen {
		return fmt.Errorf("%w: header lengths", ErrHugeCommand)
	}
	nc, err := intCount(ncmds, "command count")
	if err != nil {
		return err
	}
	d.hdr = Header{
		Format:      f,
		RefLen:      int64(refLen),
		VersionLen:  int64(versionLen),
		NumCommands: nc,
	}
	d.left = nc
	if f == FormatScratch {
		n, err := cr.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: scratch length", ErrTruncated)
		}
		// Subtraction form: n + anything could overflow, n - RefLen cannot
		// once both header lengths are known non-negative and bounded.
		if int64(n) < 0 || int64(n)-d.hdr.RefLen > d.hdr.VersionLen {
			return fmt.Errorf("%w: scratch length", ErrHugeCommand)
		}
		d.hdr.ScratchLen = int64(n)
	}
	if f == FormatCompact {
		n, err := cr.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: compact copy count", ErrTruncated)
		}
		if n > ncmds {
			return fmt.Errorf("%w: copy section larger than command count", ErrHugeCommand)
		}
		d.copiesLeft = int(n) // n <= ncmds, already bounded by intCount
		d.addsLeft = -1       // read lazily when the copy section is done
	}
	return nil
}

// Header returns the decoded framing information.
func (d *Decoder) Header() Header { return d.hdr }

// Next returns the next command, or io.EOF once all commands have been read
// and the checksum verified.
func (d *Decoder) Next() (delta.Command, error) {
	var c delta.Command
	if err := d.decodeNext(&c); err != nil {
		return delta.Command{}, err
	}
	return c, nil
}

// decodeNext decodes the next command into the zero command c: the
// command decoders fill it in place rather than return it by value.
func (d *Decoder) decodeNext(c *delta.Command) error {
	if d.pending > 0 && !d.streaming {
		return fmt.Errorf("codec: previous add payload not consumed (%d bytes left)", d.pending)
	}
	if d.left == 0 {
		if d.done {
			return io.EOF
		}
		// A compact file with no adds still carries the add-section count.
		if d.hdr.Format == FormatCompact && d.addsLeft < 0 {
			n, err := d.r.readUvarint()
			if err != nil {
				return fmt.Errorf("%w: compact add count", ErrTruncated)
			}
			if n != 0 {
				return fmt.Errorf("%w: command count disagrees with sections", ErrTruncated)
			}
			d.addsLeft = 0
		}
		if err := d.verify(); err != nil {
			return err
		}
		d.done = true
		return io.EOF
	}
	d.left--
	switch d.hdr.Format {
	case FormatOrdered, FormatOffsets:
		return d.varintCommand(c, d.hdr.Format == FormatOffsets)
	case FormatLegacyOrdered, FormatLegacyOffsets:
		return d.legacyCommand(c, d.hdr.Format == FormatLegacyOffsets)
	case FormatCompact:
		return d.compactCommand(c)
	case FormatScratch:
		return d.scratchCommand(c)
	default:
		return ErrBadFormat
	}
}

// scratchCommand decodes one command of the scratch format.
func (d *Decoder) scratchCommand(c *delta.Command) error {
	op, err := d.r.readByte()
	if err != nil {
		return fmt.Errorf("%w: opcode", ErrTruncated)
	}
	c.Op = delta.Op(op)
	switch c.Op {
	case delta.OpCopy, delta.OpStash:
		f, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: from offset", ErrTruncated)
		}
		c.From = int64(f)
	case delta.OpAdd, delta.OpUnstash:
		// write offset read below
	default:
		return fmt.Errorf("decode scratch: %w", delta.ErrBadOp)
	}
	if c.Op == delta.OpCopy || c.Op == delta.OpAdd || c.Op == delta.OpUnstash {
		t, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: write offset", ErrTruncated)
		}
		c.To = int64(t)
	}
	l, err := d.r.readUvarint()
	if err != nil {
		return fmt.Errorf("%w: length", ErrTruncated)
	}
	c.Length = int64(l)
	if c.Op == delta.OpStash {
		// Stash lengths are bounded by the declared scratch requirement.
		if c.Length <= 0 || c.Length > d.hdr.ScratchLen {
			return ErrHugeCommand
		}
	} else if err := d.checkLen(c.Length); err != nil {
		return err
	}
	if c.Op == delta.OpAdd && !d.streaming {
		data, err := d.readData(c.Length)
		if err != nil {
			return err
		}
		c.Data = data
	}
	return nil
}

// verify checks the trailing checksum against the sum of the bytes before
// it; whatever the trailer adds to the running hash afterwards is unused.
func (d *Decoder) verify() error {
	want := d.r.sum()
	b, err := d.r.take(4)
	if err != nil {
		return fmt.Errorf("%w: checksum", ErrTruncated)
	}
	if binary.BigEndian.Uint32(b) != want {
		return ErrChecksum
	}
	return nil
}

// checkLen guards against corrupt inputs demanding absurd allocations.
func (d *Decoder) checkLen(l int64) error {
	if l <= 0 || l > d.hdr.VersionLen {
		return ErrHugeCommand
	}
	return nil
}

// readData reads an l-byte add payload, allocating progressively so a
// forged length in a corrupt file fails on truncated input instead of
// attempting one huge allocation (the header lengths are untrusted too).
func (d *Decoder) readData(l int64) ([]byte, error) {
	const chunk = 64 << 10
	data := make([]byte, 0, min64(l, chunk))
	for int64(len(data)) < l {
		n := min64(l-int64(len(data)), chunk)
		data = append(data, make([]byte, n)...)
		if err := d.r.readFull(data[int64(len(data))-n:]); err != nil {
			return nil, fmt.Errorf("%w: add data", ErrTruncated)
		}
	}
	return data, nil
}

// intCount converts an untrusted wire count to int, rejecting values that
// do not fit in 31 bits so decoder state stays valid on 32-bit platforms.
func intCount(v uint64, what string) (int, error) {
	if v > 1<<31-1 {
		return 0, fmt.Errorf("%w: %s", ErrHugeCommand, what)
	}
	return int(v), nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (d *Decoder) varintCommand(c *delta.Command, offsets bool) error {
	op, err := d.r.readByte()
	if err != nil {
		return fmt.Errorf("%w: opcode", ErrTruncated)
	}
	c.Op = delta.Op(op)
	if c.Op != delta.OpCopy && c.Op != delta.OpAdd {
		return fmt.Errorf("decode: %w", delta.ErrBadOp)
	}
	if c.Op == delta.OpCopy {
		f, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: copy from", ErrTruncated)
		}
		c.From = int64(f)
	}
	if offsets {
		t, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: write offset", ErrTruncated)
		}
		c.To = int64(t)
	} else {
		c.To = d.next
	}
	l, err := d.r.readUvarint()
	if err != nil {
		return fmt.Errorf("%w: length", ErrTruncated)
	}
	c.Length = int64(l)
	if err := d.checkLen(c.Length); err != nil {
		return err
	}
	if c.Op == delta.OpAdd && !d.streaming {
		data, err := d.readData(c.Length)
		if err != nil {
			return err
		}
		c.Data = data
	}
	d.next = c.To + c.Length
	return nil
}

func (d *Decoder) legacyCommand(c *delta.Command, offsets bool) error {
	op, err := d.r.readByte()
	if err != nil {
		return fmt.Errorf("%w: opcode", ErrTruncated)
	}
	if offsets {
		t, err := d.r.readUint(8)
		if err != nil {
			return fmt.Errorf("%w: write offset", ErrTruncated)
		}
		c.To = int64(t)
	} else {
		c.To = d.next
	}
	switch op {
	case legacyOpAdd:
		l, err := d.r.readByte()
		if err != nil {
			return fmt.Errorf("%w: add length", ErrTruncated)
		}
		c.Op = delta.OpAdd
		c.Length = int64(l)
		if err := d.checkLen(c.Length); err != nil {
			return err
		}
		if !d.streaming {
			data, err := d.readData(c.Length)
			if err != nil {
				return err
			}
			c.Data = data
		}
	case legacyOpCopyShort, legacyOpCopyMed, legacyOpCopyLong:
		fw, lw := 2, 1
		if op == legacyOpCopyMed {
			fw, lw = 4, 2
		} else if op == legacyOpCopyLong {
			fw, lw = 8, 4
		}
		f, err := d.r.readUint(fw)
		if err != nil {
			return fmt.Errorf("%w: copy from", ErrTruncated)
		}
		l, err := d.r.readUint(lw)
		if err != nil {
			return fmt.Errorf("%w: copy length", ErrTruncated)
		}
		c.Op = delta.OpCopy
		c.From = int64(f)
		c.Length = int64(l)
		if err := d.checkLen(c.Length); err != nil {
			return err
		}
	default:
		return fmt.Errorf("decode legacy: %w", delta.ErrBadOp)
	}
	d.next = c.To + c.Length
	return nil
}

func (d *Decoder) compactCommand(c *delta.Command) error {
	if d.copiesLeft > 0 {
		d.copiesLeft--
		t, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: compact copy to", ErrTruncated)
		}
		l, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: compact copy length", ErrTruncated)
		}
		disp, err := d.r.readVarint()
		if err != nil {
			return fmt.Errorf("%w: compact copy displacement", ErrTruncated)
		}
		*c = delta.NewCopy(int64(t)+disp, int64(t), int64(l))
		if err := d.checkLen(c.Length); err != nil {
			return err
		}
		return nil
	}
	if d.addsLeft < 0 {
		n, err := d.r.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: compact add count", ErrTruncated)
		}
		nAdds, err := intCount(n, "compact add count")
		if err != nil {
			return err
		}
		d.addsLeft = nAdds
		d.next = 0
	}
	if d.addsLeft == 0 {
		return fmt.Errorf("%w: command count disagrees with sections", ErrTruncated)
	}
	d.addsLeft--
	gap, err := d.r.readVarint()
	if err != nil {
		return fmt.Errorf("%w: compact add gap", ErrTruncated)
	}
	l, err := d.r.readUvarint()
	if err != nil {
		return fmt.Errorf("%w: compact add length", ErrTruncated)
	}
	if err := d.checkLen(int64(l)); err != nil {
		return err
	}
	*c = delta.Command{Op: delta.OpAdd, To: d.next + gap, Length: int64(l)}
	if !d.streaming {
		data, err := d.readData(c.Length)
		if err != nil {
			return err
		}
		c.Data = data
	}
	d.next = c.To + c.Length
	return nil
}

// Decode reads a whole delta file. The returned delta's command order is
// the application order carried by the file.
func Decode(r io.Reader) (*delta.Delta, Format, error) {
	out, f, wire, err := decode(r)
	m := observer.Load()
	if err != nil {
		m.decodeErrors.Inc()
		return out, f, err
	}
	m.decodes.Inc()
	m.decodeBytes.Add(wire)
	m.decodeCommands.Add(int64(len(out.Commands)))
	return out, f, nil
}

func decode(r io.Reader) (*delta.Delta, Format, int64, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, 0, 0, err
	}
	hdr := dec.Header()
	out := &delta.Delta{
		RefLen:     hdr.RefLen,
		VersionLen: hdr.VersionLen,
		Commands:   make([]delta.Command, 0, min64(int64(hdr.NumCommands), 4096)),
	}
	for {
		c, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, dec.r.n, err
		}
		out.Commands = append(out.Commands, c)
	}
	return out, hdr.Format, dec.r.n, nil
}

// readBufSize is the decoder's read-ahead: the underlying reader is asked
// for up to this many bytes at a time, as bufio.Reader's default would.
const readBufSize = 4096

// maxEmptyReads bounds the consecutive (0, nil) reads tolerated from the
// underlying reader before giving up with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// crcReader buffers the underlying reader and tracks the CRC32 and count
// of the bytes consumed through it. Varints are parsed in place from the
// buffer and payloads copied out of it; the consumed span buf[hashed:pos]
// is hashed with one crc32.Update when the buffer is refilled, in sum, and
// before a payload tail large enough to bypass the buffer lands in the
// caller's slice. The hash therefore covers exactly the consumed bytes, in
// order, at a per-command cost of a few loads instead of an interface call
// per byte.
type crcReader struct {
	rd       io.Reader
	buf      [readBufSize]byte
	pos, end int   // buf[pos:end] is buffered, not yet consumed
	hashed   int   // buf[hashed:pos] is consumed, not yet hashed
	err      error // from rd, held until the bytes read with it are used
	crc      uint32
	n        int64 // bytes consumed
}

// flush hashes the consumed bytes not yet hashed.
func (c *crcReader) flush() {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, c.buf[c.hashed:c.pos])
	c.hashed = c.pos
}

// sum returns the CRC32 of every byte consumed so far.
func (c *crcReader) sum() uint32 {
	c.flush()
	return c.crc
}

// read makes one read of the underlying reader into p, retrying empty
// reads as bufio does. Bytes read with an error are returned first and
// the error on the next call.
func (c *crcReader) read(p []byte) (int, error) {
	if err := c.err; err != nil {
		c.err = nil
		return 0, err
	}
	for i := 0; i < maxEmptyReads; i++ {
		n, err := c.rd.Read(p)
		if n < 0 || n > len(p) {
			return 0, errBadRead
		}
		if n > 0 {
			c.err = err
			return n, nil
		}
		if err != nil {
			return 0, err
		}
	}
	return 0, io.ErrNoProgress
}

// errBadRead reports an underlying reader that broke the io.Reader
// contract by returning a negative or oversized count.
var errBadRead = errors.New("codec: reader returned an invalid count")

// fill hashes the consumed bytes, moves the unconsumed ones to the front
// of the buffer and reads once more behind them.
func (c *crcReader) fill() error {
	c.flush()
	c.end = copy(c.buf[:], c.buf[c.pos:c.end])
	c.pos, c.hashed = 0, 0
	n, err := c.read(c.buf[c.end:])
	c.end += n
	return err
}

// readByte consumes one byte.
func (c *crcReader) readByte() (byte, error) {
	if c.pos == c.end {
		if err := c.fill(); err != nil {
			return 0, err
		}
	}
	b := c.buf[c.pos]
	c.pos++
	c.n++
	return b, nil
}

// readFull consumes len(p) bytes into p. Once the buffer is drained, a
// tail of at least a buffer's length is read straight into p.
func (c *crcReader) readFull(p []byte) error {
	for len(p) > 0 {
		if c.pos == c.end {
			if len(p) >= len(c.buf) {
				c.flush()
				n, err := c.read(p)
				if err != nil {
					return err
				}
				c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
				c.n += int64(n)
				p = p[n:]
				continue
			}
			if err := c.fill(); err != nil {
				return err
			}
		}
		n := copy(p, c.buf[c.pos:c.end])
		c.pos += n
		c.n += int64(n)
		p = p[n:]
	}
	return nil
}

// take consumes the next n bytes, n <= readBufSize, and returns them in
// place: the slice is valid until the next read.
func (c *crcReader) take(n int) ([]byte, error) {
	for c.end-c.pos < n {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	c.n += int64(n)
	return b, nil
}

// readUvarint consumes one unsigned varint, parsed in place; the buffer
// is topped up only while the bytes buffered end inside the varint. At
// the end of the input it parses what is left and reports the reader's
// error when that is not a whole varint.
func (c *crcReader) readUvarint() (uint64, error) {
	for {
		v, n := binary.Uvarint(c.buf[c.pos:c.end])
		if n > 0 {
			c.pos += n
			c.n += int64(n)
			return v, nil
		}
		if n < 0 {
			return 0, errVarintOverflow
		}
		if err := c.fill(); err != nil {
			return 0, err
		}
	}
}

// errVarintOverflow reports a varint longer than a uint64 holds.
var errVarintOverflow = errors.New("codec: varint overflows a 64-bit integer")

// readVarint consumes one zig-zag signed varint, as binary.ReadVarint.
func (c *crcReader) readVarint() (int64, error) {
	u, err := c.readUvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x, err
}

// readUint consumes a big-endian unsigned integer of width bytes, width <= 8.
func (c *crcReader) readUint(width int) (uint64, error) {
	b, err := c.take(width)
	if err != nil {
		return 0, err
	}
	var buf [8]byte
	copy(buf[8-width:], b)
	return binary.BigEndian.Uint64(buf[:]), nil
}
