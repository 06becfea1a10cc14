package device

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
)

// DefaultWorkBufSize is the default size of the device's only working
// buffer. It bounds the device's memory use regardless of file or delta
// size.
const DefaultWorkBufSize = 4096

// workBufs pools working buffers across devices. Each operation that
// reads or writes the store borrows one of the device's work-buffer size
// for its duration, so a Device holds no buffer between operations and a
// fresh Device per session costs only its struct.
var workBufs sync.Pool

// borrowWork returns a pooled buffer of exactly n bytes; hand it back to
// workBufs when the operation ends.
func borrowWork(n int) *[]byte {
	if b, ok := workBufs.Get().(*[]byte); ok && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]byte, n)
	return &b
}

// decoders pools Apply's delta decoders with their read buffers.
var decoders = sync.Pool{New: func() any { return new(codec.Decoder) }}

// Errors reported by the device patcher.
var (
	ErrNotInPlace     = errors.New("device: delta format cannot be applied in place")
	ErrWrongVersion   = errors.New("device: delta reference length disagrees with installed image")
	ErrImageTooLarge  = errors.New("device: new version exceeds flash capacity")
	ErrResumeMismatch = errors.New("device: resumed delta differs from the interrupted one")
	ErrScratchBudget  = errors.New("device: delta needs more scratch than the flash can spare")
)

// progress is the simulated NVRAM word recording how far an interrupted
// update got: the number of fully applied commands and the bytes completed
// of the in-flight command. Sixteen bytes of durable state is all a real
// device needs to make in-place updates power-cut safe. The full flag
// marks a full-image install (the degradation path) instead of a delta:
// there cmd is unused and done counts image bytes written.
type progress struct {
	active     bool
	full       bool
	cmd        int64
	done       int64
	refLen     int64
	versionLen int64
	numCmds    int64
	refCRC     uint32
}

// Store is the storage a device patches in place: the Flash simulation or
// a real file via FileStore. Reads beyond written data return zeros, like
// an erased part. The Device over a Store is its only writer: the device
// remembers its image CRC between its own writes, so bytes changed behind
// its back would go unseen until its next write.
type Store interface {
	// ReadAt fills p from offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at offset off.
	WriteAt(p []byte, off int64) error
	// Capacity is the total storage size in bytes.
	Capacity() int64
}

// Device is a limited-memory network device: a storage part, a bounded
// working buffer, and a tiny progress record. It applies in-place deltas
// streamed from the network without ever allocating version-sized scratch.
// The working buffer and Apply's decoder are borrowed from process-wide
// pools for the duration of each operation.
type Device struct {
	store    Store
	imageLen int64
	workSize int // bytes of working buffer each operation borrows
	nv       progress
	nvWrites int64
	crc      uint32 // CRC of the installed image, valid while crcOK
	crcOK    bool
}

// New returns a device whose storage currently holds an image of imageLen
// bytes. workBufSize bounds the working buffer (minimum 16 bytes). New
// allocates only the Device: each operation borrows its working buffer.
func New(store Store, imageLen int64, workBufSize int) *Device {
	if workBufSize < 16 {
		workBufSize = 16
	}
	return &Device{store: store, imageLen: imageLen, workSize: workBufSize}
}

// ImageLen returns the length of the currently installed image.
func (d *Device) ImageLen() int64 { return d.imageLen }

// FlashCapacity returns the total flash size.
func (d *Device) FlashCapacity() int64 { return d.store.Capacity() }

// Image returns a copy of the installed image.
func (d *Device) Image() []byte {
	out := make([]byte, d.imageLen)
	for at := int64(0); at < d.imageLen; {
		n := int64(d.workSize)
		if d.imageLen-at < n {
			n = d.imageLen - at
		}
		if err := d.store.ReadAt(out[at:at+n], at); err != nil {
			return out[:at]
		}
		at += n
	}
	return out
}

// Updating reports whether an interrupted update is pending resume.
func (d *Device) Updating() bool { return d.nv.active }

// NVWrites returns how many times the progress record was persisted —
// a proxy for NVRAM wear.
func (d *Device) NVWrites() int64 { return d.nvWrites }

// persist simulates writing the progress record to NVRAM.
func (d *Device) persist() { d.nvWrites++ }

// ImageCRC returns the CRC32 of the installed image; the update protocol
// uses it to identify versions. It reads the image through the bounded
// working buffer once, then remembers the value until the next flash
// write, so a session's hello and Apply share one pass.
func (d *Device) ImageCRC() (uint32, error) {
	if d.crcOK {
		return d.crc, nil
	}
	wb := borrowWork(d.workSize)
	defer workBufs.Put(wb)
	work := *wb
	var crc uint32
	for at := int64(0); at < d.imageLen; {
		n := int64(len(work))
		if d.imageLen-at < n {
			n = d.imageLen - at
		}
		if err := d.store.ReadAt(work[:n], at); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, work[:n])
		at += n
	}
	d.crc, d.crcOK = crc, true
	return d.crc, nil
}

// write stores p at off. It forgets the image CRC first, so a write that
// fails or is cut leaves no stale value behind.
func (d *Device) write(p []byte, off int64) error {
	d.crcOK = false
	return d.store.WriteAt(p, off)
}

// Pending describes an interrupted update. Full marks an interrupted
// full-image install; RefCRC and RefLen are meaningless there (the source
// image is already partially overwritten).
type Pending struct {
	RefCRC     uint32
	RefLen     int64
	VersionLen int64
	Full       bool
}

// PendingUpdate returns details of the interrupted update, if any, so an
// update client can ask the server to re-stream the same delta (or the
// same full image).
func (d *Device) PendingUpdate() (Pending, bool) {
	if !d.nv.active {
		return Pending{}, false
	}
	return Pending{
		RefCRC:     d.nv.refCRC,
		RefLen:     d.nv.refLen,
		VersionLen: d.nv.versionLen,
		Full:       d.nv.full,
	}, true
}

// Apply streams an in-place reconstructible delta from r and applies it to
// the flash. If a previous Apply was interrupted (e.g. by ErrPowerCut), the
// same delta may be streamed again and application resumes where it
// stopped; commands already applied are skipped without touching the flash.
//
// Deltas in the scratch format use a dedicated region at the top of the
// flash as durable scratch (so resume survives power cuts); the flash must
// have room for max(image, version) plus the declared scratch bytes.
//
// On success the installed image is the new version. On error the flash
// holds a partial update and the progress record allows resumption; any
// other delta is rejected until the interrupted one completes.
func (d *Device) Apply(r io.Reader) error {
	dec := decoders.Get().(*codec.Decoder)
	defer func() {
		*dec = codec.Decoder{} // keeps no reader alive in the pool
		decoders.Put(dec)
	}()
	if err := dec.Reset(r); err != nil {
		return err
	}
	hdr := dec.Header()
	if !hdr.Format.InPlaceCapable() {
		return fmt.Errorf("%w: %v", ErrNotInPlace, hdr.Format)
	}
	if hdr.VersionLen > d.store.Capacity() {
		return fmt.Errorf("%w: need %d bytes, capacity %d", ErrImageTooLarge, hdr.VersionLen, d.store.Capacity())
	}
	// The durable scratch area sits above both file images.
	imageArea := hdr.VersionLen
	if hdr.RefLen > imageArea {
		imageArea = hdr.RefLen
	}
	if imageArea+hdr.ScratchLen > d.store.Capacity() {
		return fmt.Errorf("%w: need %d image + %d scratch, capacity %d",
			ErrScratchBudget, imageArea, hdr.ScratchLen, d.store.Capacity())
	}
	scratchBase := d.store.Capacity() - hdr.ScratchLen
	if d.nv.active {
		if d.nv.full {
			// A full-image install is pending; its partial writes make the
			// installed image unusable as a delta reference.
			return ErrResumeMismatch
		}
		if hdr.RefLen != d.nv.refLen || hdr.VersionLen != d.nv.versionLen || int64(hdr.NumCommands) != d.nv.numCmds {
			return ErrResumeMismatch
		}
	} else {
		if hdr.RefLen != d.imageLen {
			return fmt.Errorf("%w: image %d bytes, delta expects %d", ErrWrongVersion, d.imageLen, hdr.RefLen)
		}
		// The session's hello already read the image for its CRC;
		// ImageCRC remembers it, so this costs no second pass.
		refCRC, err := d.ImageCRC()
		if err != nil {
			return err
		}
		d.nv = progress{
			active:     true,
			refLen:     hdr.RefLen,
			versionLen: hdr.VersionLen,
			numCmds:    int64(hdr.NumCommands),
			refCRC:     refCRC,
		}
		d.persist()
	}

	wb := borrowWork(d.workSize)
	defer workBufs.Put(wb)
	// Scratch cursors are recomputed deterministically while streaming, so
	// they need no NVRAM of their own: skipped commands advance them too.
	var stashAt, unstashAt int64
	for idx := int64(0); ; idx++ {
		c, payload, err := dec.NextStreaming()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// Resolve scratch-area addresses before the skip decision.
		var scratchOff int64
		switch c.Op {
		case delta.OpStash:
			scratchOff = scratchBase + stashAt
			stashAt += c.Length
		case delta.OpUnstash:
			scratchOff = scratchBase + unstashAt
			unstashAt += c.Length
		}
		if idx < d.nv.cmd {
			// Already applied before the interruption; drain and skip.
			if payload != nil {
				if _, err := io.Copy(io.Discard, payload); err != nil {
					return err
				}
			}
			continue
		}
		resume := int64(0)
		if idx == d.nv.cmd {
			resume = d.nv.done
		}
		if err := d.applyCommand(c, payload, resume, scratchOff, *wb); err != nil {
			return err
		}
		d.nv.cmd = idx + 1
		d.nv.done = 0
		d.persist()
	}
	// A delta may change the length without a write; the CRC goes too.
	d.imageLen, d.crcOK = d.nv.versionLen, false
	d.nv = progress{}
	d.persist()
	return nil
}

// applyCommand executes one command chunk by chunk through the working
// buffer work, starting from `resume` completed bytes, persisting progress
// after every chunk. For stash/unstash commands, scratchOff addresses the
// durable scratch region.
func (d *Device) applyCommand(c delta.Command, payload io.Reader, resume, scratchOff int64, work []byte) error {
	switch c.Op {
	case delta.OpCopy:
		return d.applyCopy(c, resume, work)
	case delta.OpAdd:
		return d.applyAdd(c, payload, resume, work)
	case delta.OpStash:
		// Copy buffer bytes into the scratch region; the regions are
		// disjoint, so a plain left-to-right chunked copy is safe.
		return d.applyCopy(delta.NewCopy(c.From, scratchOff, c.Length), resume, work)
	case delta.OpUnstash:
		// Copy scratch bytes back into the version area.
		return d.applyCopy(delta.NewCopy(scratchOff, c.To, c.Length), resume, work)
	default:
		return fmt.Errorf("device: %v", delta.ErrBadOp)
	}
}

// applyCopy performs a directional chunked copy (§4.1 of the paper):
// left-to-right when from >= to, right-to-left otherwise, so a copy whose
// read and write intervals overlap never reads a byte it has already
// overwritten — even across power cuts, since progress is persisted per
// chunk and chunks are re-run only if their write never happened.
func (d *Device) applyCopy(c delta.Command, done int64, work []byte) error {
	step := int64(len(work))
	for done < c.Length {
		n := step
		if c.Length-done < n {
			n = c.Length - done
		}
		var off int64
		if c.From >= c.To {
			off = done // left-to-right
		} else {
			off = c.Length - done - n // right-to-left
		}
		if err := d.store.ReadAt(work[:n], c.From+off); err != nil {
			return err
		}
		if err := d.write(work[:n], c.To+off); err != nil {
			return err
		}
		done += n
		d.nv.done = done
		d.persist()
	}
	return nil
}

// InstallFull streams a complete image of length bytes from r into the
// flash, replacing whatever is installed — the degradation path when delta
// sessions keep failing or the server does not know the device's version.
//
// Like Apply, the install is resumable: progress is persisted per chunk,
// and re-streaming the same image continues where the last attempt died
// (the already-written prefix is drained from r without rewriting it). A
// pending delta update, or a pending full install of a different length,
// is abandoned and the install restarts from byte zero.
func (d *Device) InstallFull(r io.Reader, length int64) error {
	if length > d.store.Capacity() {
		return fmt.Errorf("%w: need %d bytes, capacity %d", ErrImageTooLarge, length, d.store.Capacity())
	}
	if !d.nv.active || !d.nv.full || d.nv.versionLen != length {
		d.nv = progress{active: true, full: true, versionLen: length}
		d.persist()
	}
	wb := borrowWork(d.workSize)
	defer workBufs.Put(wb)
	if err := d.applyAdd(delta.Command{Op: delta.OpAdd, Length: length}, r, d.nv.done, *wb); err != nil {
		return err
	}
	d.imageLen, d.crcOK = length, false
	d.nv = progress{}
	d.persist()
	return nil
}

// applyAdd streams the payload into flash. On resume, the bytes already
// written are drained from the payload without rewriting them.
func (d *Device) applyAdd(c delta.Command, payload io.Reader, done int64, work []byte) error {
	if done > 0 {
		if _, err := io.CopyN(io.Discard, payload, done); err != nil {
			return err
		}
	}
	for done < c.Length {
		n := int64(len(work))
		if c.Length-done < n {
			n = c.Length - done
		}
		if _, err := io.ReadFull(payload, work[:n]); err != nil {
			return err
		}
		if err := d.write(work[:n], c.To+done); err != nil {
			return err
		}
		done += n
		d.nv.done = done
		d.persist()
	}
	return nil
}
