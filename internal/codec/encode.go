package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"ipdelta/internal/delta"
)

// legacy codeword opcodes. The legacy formats mimic the byte-granular
// codewords of the classic differencing literature: a single-byte add
// length, and copy codewords sized to the smallest offset/length fields
// that fit.
const (
	legacyOpAdd       = 0xA1 // len uint8, data
	legacyOpCopyShort = 0xC1 // f uint16, l uint8
	legacyOpCopyMed   = 0xC2 // f uint32, l uint16
	legacyOpCopyLong  = 0xC3 // f uint64, l uint32
)

// legacyMaxAdd is the largest add a single legacy codeword can carry;
// longer adds are split, which is precisely the inefficiency §7 discusses.
const legacyMaxAdd = 255

// Encode writes d to w in the given format and returns the number of bytes
// written, including header and trailing CRC32. Ordered formats require the
// commands to appear in contiguous write order ([0, VersionLen) with no
// gaps); ErrNotOrdered is returned otherwise.
//
// In the compact, offsets and scratch formats, a writer with a Grow(int)
// method, such as a bytes.Buffer, is grown once by the encoding's size
// before anything is written, so a large delta does not regrow and
// recopy the buffer as it is encoded.
func Encode(w io.Writer, d *delta.Delta, f Format) (int64, error) {
	e := encoder{w: newCRCWriter(w), dst: w}
	err := e.encode(d, f)
	n := e.w.n
	e.w.release()
	m := observer.Load()
	if err != nil {
		m.encodeErrors.Inc()
		return n, err
	}
	m.encodes.Inc()
	m.encodeBytes.Add(n)
	m.encodeCommands.Add(int64(len(d.Commands)))
	return n, nil
}

// EncodedSize returns the exact encoded size of d in format f without
// retaining the output.
func EncodedSize(d *delta.Delta, f Format) (int64, error) {
	return Encode(io.Discard, d, f)
}

// crcWriter counts bytes and maintains the running CRC32 of everything
// written through it. The CRC is a plain uint32 advanced with
// crc32.Update, so hashing a write is a direct call rather than an
// interface call that would force the caller's bytes onto the heap.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int64
	// hdr stages one codeword's fixed fields so each command reaches the
	// writer and the hash in a single call.
	hdr [1 + 3*binary.MaxVarintLen64]byte
}

// crcWriters pools Encode's writers with their 4 KiB buffers.
var crcWriters = sync.Pool{New: func() any { return &crcWriter{w: bufio.NewWriter(nil)} }}

// newCRCWriter returns a pooled writer over w; hand it back with release.
func newCRCWriter(w io.Writer) *crcWriter {
	c := crcWriters.Get().(*crcWriter)
	c.w.Reset(w)
	c.crc, c.n = 0, 0
	return c
}

// release detaches c from its destination, so the pool keeps no writer
// alive, and pools it.
func (c *crcWriter) release() {
	c.w.Reset(nil)
	crcWriters.Put(c)
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// fields starts a staged codeword: it returns the empty staging buffer
// the per-format encoders append their fields to before one put.
func (c *crcWriter) fields() []byte { return c.hdr[:0] }

// put writes a staged codeword built on c.hdr.
func (c *crcWriter) put(b []byte) error {
	_, err := c.Write(b)
	return err
}

func (c *crcWriter) writeUvarint(v uint64) error {
	return c.put(binary.AppendUvarint(c.fields(), v))
}

// finish appends the CRC (not hashed, of course) and flushes.
func (c *crcWriter) finish() error {
	buf := binary.BigEndian.AppendUint32(c.fields(), c.crc)
	n, err := c.w.Write(buf)
	c.n += int64(n)
	if err != nil {
		return err
	}
	return c.w.Flush()
}

type encoder struct {
	w   *crcWriter
	dst io.Writer // the caller's writer, which grow may size up front
}

// grow gives a growable destination room for the whole encoding. Size is
// exact for the formats it covers; the legacy formats get no hint. It
// runs after validation, so every add's Length is its data's length and
// the hint is bounded by the memory d already holds.
func (e *encoder) grow(d *delta.Delta, f Format) {
	g, ok := e.dst.(interface{ Grow(int) })
	if !ok {
		return
	}
	n, err := Size(d, f)
	if err != nil || n <= 0 || n > math.MaxInt {
		return
	}
	g.Grow(int(n))
}

func (e *encoder) encode(d *delta.Delta, f Format) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	cmds, err := prepareCommands(d, f)
	if err != nil {
		return err
	}
	e.grow(d, f)
	if err := e.header(d, f, len(cmds)); err != nil {
		return err
	}
	if f == FormatScratch {
		if err := e.w.writeUvarint(uint64(d.ScratchRequired())); err != nil {
			return err
		}
	}
	if f == FormatCompact {
		if err := e.compactBody(cmds); err != nil {
			return err
		}
	} else {
		for _, c := range cmds {
			if err := e.command(c, f); err != nil {
				return err
			}
		}
	}
	return e.w.finish()
}

// prepareCommands validates ordering constraints and splits adds that the
// legacy codewords cannot carry whole.
func prepareCommands(d *delta.Delta, f Format) ([]delta.Command, error) {
	if f == FormatOrdered || f == FormatLegacyOrdered {
		var next int64
		for _, c := range d.Commands {
			if c.To != next {
				return nil, ErrNotOrdered
			}
			next += c.Length
		}
		if next != d.VersionLen {
			return nil, ErrNotOrdered
		}
	}
	if f != FormatScratch {
		for _, c := range d.Commands {
			if c.Op == delta.OpStash || c.Op == delta.OpUnstash {
				return nil, fmt.Errorf("codec: %v commands need the scratch format", c.Op)
			}
		}
	}
	if f != FormatLegacyOrdered && f != FormatLegacyOffsets {
		return d.Commands, nil
	}
	out := make([]delta.Command, 0, len(d.Commands))
	for _, c := range d.Commands {
		if c.Op != delta.OpAdd || c.Length <= legacyMaxAdd {
			out = append(out, c)
			continue
		}
		for off := int64(0); off < c.Length; off += legacyMaxAdd {
			n := c.Length - off
			if n > legacyMaxAdd {
				n = legacyMaxAdd
			}
			out = append(out, delta.NewAdd(c.To+off, c.Data[off:off+n]))
		}
	}
	return out, nil
}

func (e *encoder) header(d *delta.Delta, f Format, ncmds int) error {
	b := append(e.w.fields(), magic[:]...)
	b = append(b, byte(f))
	b = binary.AppendUvarint(b, uint64(d.RefLen))
	b = binary.AppendUvarint(b, uint64(d.VersionLen))
	return e.w.put(binary.AppendUvarint(b, uint64(ncmds)))
}

func (e *encoder) command(c delta.Command, f Format) error {
	switch f {
	case FormatOrdered, FormatOffsets:
		return e.varintCommand(c, f == FormatOffsets)
	case FormatLegacyOrdered, FormatLegacyOffsets:
		return e.legacyCommand(c, f == FormatLegacyOffsets)
	case FormatScratch:
		return e.scratchCommand(c)
	default:
		return ErrBadFormat
	}
}

// payload writes an add's literal bytes after its staged codeword.
func (e *encoder) payload(c delta.Command) error {
	if c.Op != delta.OpAdd {
		return nil
	}
	_, err := e.w.Write(c.Data)
	return err
}

// scratchCommand encodes one command of the scratch format: opcode, then
// ⟨f,t,l⟩ for copies, ⟨t,l⟩+data for adds, ⟨f,l⟩ for stash, ⟨t,l⟩ for
// unstash — all varints.
func (e *encoder) scratchCommand(c delta.Command) error {
	b := append(e.w.fields(), byte(c.Op))
	switch c.Op {
	case delta.OpCopy, delta.OpStash:
		b = binary.AppendUvarint(b, uint64(c.From))
	case delta.OpAdd, delta.OpUnstash:
	default:
		return fmt.Errorf("scratch encode: %v", delta.ErrBadOp)
	}
	if c.Op != delta.OpStash {
		b = binary.AppendUvarint(b, uint64(c.To))
	}
	if err := e.w.put(binary.AppendUvarint(b, uint64(c.Length))); err != nil {
		return err
	}
	return e.payload(c)
}

// varintCommand encodes one command of the ordered/offsets formats:
// opcode byte, then ⟨l⟩ / ⟨t,l⟩ for adds and ⟨f,l⟩ / ⟨f,t,l⟩ for copies.
func (e *encoder) varintCommand(c delta.Command, offsets bool) error {
	b := append(e.w.fields(), byte(c.Op))
	if c.Op == delta.OpCopy {
		b = binary.AppendUvarint(b, uint64(c.From))
	}
	if offsets {
		b = binary.AppendUvarint(b, uint64(c.To))
	}
	if err := e.w.put(binary.AppendUvarint(b, uint64(c.Length))); err != nil {
		return err
	}
	return e.payload(c)
}

// legacyCommand encodes one classic codeword. In the offsets variant every
// codeword carries a fixed 8-byte write offset, reproducing how expensive
// the many short legacy adds become once in-place reconstruction forces
// explicit offsets (§7).
func (e *encoder) legacyCommand(c delta.Command, offsets bool) error {
	op := byte(legacyOpAdd)
	fw, lw := 0, 1
	switch c.Op {
	case delta.OpAdd:
		// Long adds are split into <=255-byte codewords before reaching
		// here; refuse rather than truncate if that invariant breaks.
		if c.Length > legacyMaxAdd {
			return fmt.Errorf("codec: legacy add length %d exceeds %d", c.Length, legacyMaxAdd)
		}
	case delta.OpCopy:
		switch {
		case c.From <= 0xFFFF && c.Length <= 0xFF:
			op, fw, lw = legacyOpCopyShort, 2, 1
		case c.From <= 0xFFFFFFFF && c.Length <= 0xFFFF:
			op, fw, lw = legacyOpCopyMed, 4, 2
		default:
			op, fw, lw = legacyOpCopyLong, 8, 4
		}
	default:
		return fmt.Errorf("legacy encode: %v", delta.ErrBadOp)
	}
	b := append(e.w.fields(), op)
	if offsets {
		b = appendBigEndian(b, uint64(c.To), 8)
	}
	if fw > 0 {
		b = appendBigEndian(b, uint64(c.From), fw)
	}
	if err := e.w.put(appendBigEndian(b, uint64(c.Length), lw)); err != nil {
		return err
	}
	return e.payload(c)
}

// compactBody encodes the redesigned in-place format: a copy section in
// application order with the from-offset expressed as a displacement from
// the write offset, then an add section whose write offsets are
// delta-encoded from the end of the previous add. Both sections are
// written by walking cmds twice, so encoding allocates nothing per call.
func (e *encoder) compactBody(cmds []delta.Command) error {
	copies := 0
	for _, c := range cmds {
		if c.Op == delta.OpCopy {
			copies++
		}
	}
	if err := e.w.writeUvarint(uint64(copies)); err != nil {
		return err
	}
	for _, c := range cmds {
		if c.Op != delta.OpCopy {
			continue
		}
		b := binary.AppendUvarint(e.w.fields(), uint64(c.To))
		b = binary.AppendUvarint(b, uint64(c.Length))
		if err := e.w.put(binary.AppendVarint(b, c.From-c.To)); err != nil {
			return err
		}
	}
	if err := e.w.writeUvarint(uint64(len(cmds) - copies)); err != nil {
		return err
	}
	prevEnd := int64(0)
	for _, c := range cmds {
		if c.Op == delta.OpCopy {
			continue
		}
		b := binary.AppendVarint(e.w.fields(), c.To-prevEnd)
		if err := e.w.put(binary.AppendUvarint(b, uint64(c.Length))); err != nil {
			return err
		}
		if _, err := e.w.Write(c.Data); err != nil {
			return err
		}
		prevEnd = c.To + c.Length
	}
	return nil
}

// appendBigEndian appends the low width bytes of v, most significant first.
func appendBigEndian(b []byte, v uint64, width int) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(b, buf[8-width:]...)
}
