package codec

import (
	"bufio"
	"encoding/binary"
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
	r    *crcReader
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
	cr := newCRCReader(r)
	var m [4]byte
	if err := cr.readFull(m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	fb, err := cr.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	f := Format(fb)
	if _, err := ParseFormat(f.String()); err != nil {
		return nil, ErrBadFormat
	}
	refLen, err := cr.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	versionLen, err := cr.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	ncmds, err := cr.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	// Header fields are untrusted: reject values that cannot describe a
	// real file before they reach any arithmetic or allocation.
	const maxLen = int64(1) << 56
	if int64(refLen) < 0 || int64(refLen) > maxLen ||
		int64(versionLen) < 0 || int64(versionLen) > maxLen {
		return nil, fmt.Errorf("%w: header lengths", ErrHugeCommand)
	}
	nc, err := intCount(ncmds, "command count")
	if err != nil {
		return nil, err
	}
	d := &Decoder{
		r: cr,
		hdr: Header{
			Format:      f,
			RefLen:      int64(refLen),
			VersionLen:  int64(versionLen),
			NumCommands: nc,
		},
		left: nc,
	}
	if f == FormatScratch {
		n, err := cr.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: scratch length", ErrTruncated)
		}
		// Subtraction form: n + anything could overflow, n - RefLen cannot
		// once both header lengths are known non-negative and bounded.
		if int64(n) < 0 || int64(n)-d.hdr.RefLen > d.hdr.VersionLen {
			return nil, fmt.Errorf("%w: scratch length", ErrHugeCommand)
		}
		d.hdr.ScratchLen = int64(n)
	}
	if f == FormatCompact {
		n, err := cr.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: compact copy count", ErrTruncated)
		}
		if n > ncmds {
			return nil, fmt.Errorf("%w: copy section larger than command count", ErrHugeCommand)
		}
		d.copiesLeft = int(n) // n <= ncmds, already bounded by intCount
		d.addsLeft = -1       // read lazily when the copy section is done
	}
	return d, nil
}

// Header returns the decoded framing information.
func (d *Decoder) Header() Header { return d.hdr }

// Next returns the next command, or io.EOF once all commands have been read
// and the checksum verified.
func (d *Decoder) Next() (delta.Command, error) {
	if d.pending > 0 && !d.streaming {
		return delta.Command{}, fmt.Errorf("codec: previous add payload not consumed (%d bytes left)", d.pending)
	}
	if d.left == 0 {
		if d.done {
			return delta.Command{}, io.EOF
		}
		// A compact file with no adds still carries the add-section count.
		if d.hdr.Format == FormatCompact && d.addsLeft < 0 {
			n, err := d.r.readUvarint()
			if err != nil {
				return delta.Command{}, fmt.Errorf("%w: compact add count", ErrTruncated)
			}
			if n != 0 {
				return delta.Command{}, fmt.Errorf("%w: command count disagrees with sections", ErrTruncated)
			}
			d.addsLeft = 0
		}
		if err := d.verify(); err != nil {
			return delta.Command{}, err
		}
		d.done = true
		return delta.Command{}, io.EOF
	}
	d.left--
	switch d.hdr.Format {
	case FormatOrdered, FormatOffsets:
		return d.varintCommand(d.hdr.Format == FormatOffsets)
	case FormatLegacyOrdered, FormatLegacyOffsets:
		return d.legacyCommand(d.hdr.Format == FormatLegacyOffsets)
	case FormatCompact:
		return d.compactCommand()
	case FormatScratch:
		return d.scratchCommand()
	default:
		return delta.Command{}, ErrBadFormat
	}
}

// scratchCommand decodes one command of the scratch format.
func (d *Decoder) scratchCommand() (delta.Command, error) {
	op, err := d.r.ReadByte()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: opcode", ErrTruncated)
	}
	var c delta.Command
	c.Op = delta.Op(op)
	switch c.Op {
	case delta.OpCopy, delta.OpStash:
		f, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: from offset", ErrTruncated)
		}
		c.From = int64(f)
	case delta.OpAdd, delta.OpUnstash:
		// write offset read below
	default:
		return delta.Command{}, fmt.Errorf("decode scratch: %w", delta.ErrBadOp)
	}
	if c.Op == delta.OpCopy || c.Op == delta.OpAdd || c.Op == delta.OpUnstash {
		t, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: write offset", ErrTruncated)
		}
		c.To = int64(t)
	}
	l, err := d.r.readUvarint()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: length", ErrTruncated)
	}
	c.Length = int64(l)
	if c.Op == delta.OpStash {
		// Stash lengths are bounded by the declared scratch requirement.
		if c.Length <= 0 || c.Length > d.hdr.ScratchLen {
			return delta.Command{}, ErrHugeCommand
		}
	} else if err := d.checkLen(c.Length); err != nil {
		return delta.Command{}, err
	}
	if c.Op == delta.OpAdd && !d.streaming {
		data, err := d.readData(c.Length)
		if err != nil {
			return delta.Command{}, err
		}
		c.Data = data
	}
	return c, nil
}

func (d *Decoder) verify() error {
	want := d.r.sum()
	var buf [4]byte
	if err := d.r.readRaw(buf[:]); err != nil {
		return fmt.Errorf("%w: checksum", ErrTruncated)
	}
	if binary.BigEndian.Uint32(buf[:]) != want {
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

func (d *Decoder) varintCommand(offsets bool) (delta.Command, error) {
	op, err := d.r.ReadByte()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: opcode", ErrTruncated)
	}
	var c delta.Command
	c.Op = delta.Op(op)
	if c.Op != delta.OpCopy && c.Op != delta.OpAdd {
		return delta.Command{}, fmt.Errorf("decode: %w", delta.ErrBadOp)
	}
	if c.Op == delta.OpCopy {
		f, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: copy from", ErrTruncated)
		}
		c.From = int64(f)
	}
	if offsets {
		t, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: write offset", ErrTruncated)
		}
		c.To = int64(t)
	} else {
		c.To = d.next
	}
	l, err := d.r.readUvarint()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: length", ErrTruncated)
	}
	c.Length = int64(l)
	if err := d.checkLen(c.Length); err != nil {
		return delta.Command{}, err
	}
	if c.Op == delta.OpAdd && !d.streaming {
		data, err := d.readData(c.Length)
		if err != nil {
			return delta.Command{}, err
		}
		c.Data = data
	}
	d.next = c.To + c.Length
	return c, nil
}

func (d *Decoder) legacyCommand(offsets bool) (delta.Command, error) {
	op, err := d.r.ReadByte()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: opcode", ErrTruncated)
	}
	var c delta.Command
	if offsets {
		t, err := d.r.readUint(8)
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: write offset", ErrTruncated)
		}
		c.To = int64(t)
	} else {
		c.To = d.next
	}
	switch op {
	case legacyOpAdd:
		l, err := d.r.ReadByte()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: add length", ErrTruncated)
		}
		c.Op = delta.OpAdd
		c.Length = int64(l)
		if err := d.checkLen(c.Length); err != nil {
			return delta.Command{}, err
		}
		if !d.streaming {
			data, err := d.readData(c.Length)
			if err != nil {
				return delta.Command{}, err
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
			return delta.Command{}, fmt.Errorf("%w: copy from", ErrTruncated)
		}
		l, err := d.r.readUint(lw)
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: copy length", ErrTruncated)
		}
		c.Op = delta.OpCopy
		c.From = int64(f)
		c.Length = int64(l)
		if err := d.checkLen(c.Length); err != nil {
			return delta.Command{}, err
		}
	default:
		return delta.Command{}, fmt.Errorf("decode legacy: %w", delta.ErrBadOp)
	}
	d.next = c.To + c.Length
	return c, nil
}

func (d *Decoder) compactCommand() (delta.Command, error) {
	if d.copiesLeft > 0 {
		d.copiesLeft--
		t, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: compact copy to", ErrTruncated)
		}
		l, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: compact copy length", ErrTruncated)
		}
		disp, err := d.r.readVarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: compact copy displacement", ErrTruncated)
		}
		c := delta.NewCopy(int64(t)+disp, int64(t), int64(l))
		if err := d.checkLen(c.Length); err != nil {
			return delta.Command{}, err
		}
		return c, nil
	}
	if d.addsLeft < 0 {
		n, err := d.r.readUvarint()
		if err != nil {
			return delta.Command{}, fmt.Errorf("%w: compact add count", ErrTruncated)
		}
		nAdds, err := intCount(n, "compact add count")
		if err != nil {
			return delta.Command{}, err
		}
		d.addsLeft = nAdds
		d.next = 0
	}
	if d.addsLeft == 0 {
		return delta.Command{}, fmt.Errorf("%w: command count disagrees with sections", ErrTruncated)
	}
	d.addsLeft--
	gap, err := d.r.readVarint()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: compact add gap", ErrTruncated)
	}
	l, err := d.r.readUvarint()
	if err != nil {
		return delta.Command{}, fmt.Errorf("%w: compact add length", ErrTruncated)
	}
	if err := d.checkLen(int64(l)); err != nil {
		return delta.Command{}, err
	}
	c := delta.Command{Op: delta.OpAdd, To: d.next + gap, Length: int64(l)}
	if !d.streaming {
		data, err := d.readData(c.Length)
		if err != nil {
			return delta.Command{}, err
		}
		c.Data = data
	}
	d.next = c.To + c.Length
	return c, nil
}

// Decode reads a whole delta file. The returned delta's command order is
// the application order carried by the file.
func Decode(r io.Reader) (*delta.Delta, Format, error) {
	out, f, wire, err := decode(r)
	if m := observer.Load(); m != nil {
		if err != nil {
			m.decodeErrors.Inc()
		} else {
			m.decodes.Inc()
			m.decodeBytes.Add(wire)
			m.decodeCommands.Add(int64(len(out.Commands)))
		}
	}
	return out, f, err
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

// crcReader tracks the CRC32 and count of all bytes read through it.
// Single bytes (opcodes, varint bytes) are staged in a fixed array and
// hashed in bulk with crc32.Update, so the per-byte cost is a store
// instead of a hash call; the stage is flushed before any bulk read and
// before the checksum is compared, so the hash always covers exactly the
// bytes read, in order. *crcReader is itself the io.ByteReader the varint
// readers consume.
type crcReader struct {
	r     *bufio.Reader
	crc   uint32
	n     int64
	stage [64]byte
	ns    int // staged bytes not yet hashed
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: bufio.NewReader(r)}
}

// ReadByte implements io.ByteReader, hashing the byte through the stage.
func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if c.ns == len(c.stage) {
		c.flush()
	}
	c.stage[c.ns] = b
	c.ns++
	c.n++
	return b, nil
}

// flush hashes the staged bytes.
func (c *crcReader) flush() {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, c.stage[:c.ns])
	c.ns = 0
}

// sum returns the CRC32 of every hashed byte read so far.
func (c *crcReader) sum() uint32 {
	c.flush()
	return c.crc
}

func (c *crcReader) readFull(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	c.flush()
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	c.n += int64(len(p))
	return nil
}

// readRaw reads without hashing; used for the trailing checksum itself.
func (c *crcReader) readRaw(p []byte) error {
	n, err := io.ReadFull(c.r, p)
	c.n += int64(n)
	return err
}

func (c *crcReader) readUvarint() (uint64, error) { return binary.ReadUvarint(c) }

func (c *crcReader) readVarint() (int64, error) { return binary.ReadVarint(c) }

func (c *crcReader) readUint(width int) (uint64, error) {
	var buf [8]byte
	if err := c.readFull(buf[8-width:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}
