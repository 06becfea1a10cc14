package delta

import (
	"errors"
	"fmt"
)

// DefaultCopyBufSize is the read/write buffer granularity used by
// directional copies when none is specified. The paper notes that the
// left-to-right / right-to-left copy argument "applies to moving a
// read/write buffer of any size"; tests exercise several sizes.
const DefaultCopyBufSize = 4096

// ErrScratchTooSmall is returned when the buffer handed to ApplyInPlace
// cannot hold both file versions.
var ErrScratchTooSmall = errors.New("buffer smaller than max(reference, version) length")

// InPlaceBufLen returns the buffer size required to apply the delta in
// place: the larger of the two file versions. A device needs exactly this
// much storage — the space the current version (rounded up to the new
// version's size) occupies — and no scratch.
func (d *Delta) InPlaceBufLen() int64 {
	if d.RefLen > d.VersionLen {
		return d.RefLen
	}
	return d.VersionLen
}

// ApplyInPlace applies the delta serially inside buf, which must hold the
// reference file in its first RefLen bytes and have room for the version
// (len(buf) >= InPlaceBufLen()). On success the version occupies the first
// VersionLen bytes of buf.
//
// Commands are applied strictly in order. Copies whose read and write
// intervals overlap are performed directionally per §4.1 of the paper:
// left-to-right when f >= t and right-to-left when f < t, moving a bounded
// buffer so a byte is never read after it has been overwritten by the same
// command. No cross-command conflict detection is performed here — a delta
// that violates Equation 2 will corrupt the output, exactly as the paper
// describes; use CheckInPlace or package inplace to obtain a safe ordering.
func (d *Delta) ApplyInPlace(buf []byte) error {
	return d.applyInPlace(buf, DefaultCopyBufSize)
}

// ApplyInPlaceBuf is ApplyInPlace with an explicit directional copy buffer
// granularity (bufSize >= 1).
func (d *Delta) ApplyInPlaceBuf(buf []byte, bufSize int) error {
	if bufSize < 1 {
		return fmt.Errorf("copy buffer size %d < 1", bufSize)
	}
	return d.applyInPlace(buf, bufSize)
}

func (d *Delta) applyInPlace(buf []byte, bufSize int) error {
	if int64(len(buf)) < d.InPlaceBufLen() {
		return ErrScratchTooSmall
	}
	var scratch scratchState
	for k, c := range d.Commands {
		if err := d.validateCommand(c); err != nil {
			return &ValidationError{Index: k, Cmd: c, Cause: err}
		}
		switch c.Op {
		case OpCopy:
			directionalCopy(buf, c.From, c.To, c.Length, bufSize)
		case OpAdd:
			copy(buf[c.To:c.To+c.Length], c.Data)
		case OpStash:
			scratch.stash(buf[c.From : c.From+c.Length])
		case OpUnstash:
			data, err := scratch.unstash(c.Length)
			if err != nil {
				return &ValidationError{Index: k, Cmd: c, Cause: err}
			}
			copy(buf[c.To:c.To+c.Length], data)
		}
	}
	return nil
}

// directionalCopy moves length bytes from offset from to offset to within
// buf, chunked at bufSize granularity, choosing the direction that never
// reads a byte the same command has already overwritten: left-to-right when
// from >= to, right-to-left when from < to (§4.1).
func directionalCopy(buf []byte, from, to, length int64, bufSize int) {
	if length <= 0 || from == to {
		return
	}
	step := int64(bufSize)
	if from >= to {
		// Left-to-right: the source cursor stays ahead of the write cursor.
		for done := int64(0); done < length; done += step {
			n := step
			if length-done < n {
				n = length - done
			}
			copy(buf[to+done:to+done+n], buf[from+done:from+done+n])
		}
		return
	}
	// Right-to-left: start at the tail so the head of the source is intact
	// until it is read.
	for done := length; done > 0; {
		n := step
		if done < n {
			n = done
		}
		done -= n
		copy(buf[to+done:to+done+n], buf[from+done:from+done+n])
	}
}
