package netupdate

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"ipdelta/internal/device"
)

// Result summarizes one update session from the device's perspective.
type Result struct {
	// UpToDate is true when the server had nothing newer.
	UpToDate bool
	// DeltaBytes is the size of the received payload (a delta, or the
	// whole image when FullImage is set).
	DeltaBytes int64
	// Resumed is true when the session continued an interrupted update.
	Resumed bool
	// FullImage is true when the session transferred the complete current
	// image instead of a delta — the degradation path.
	FullImage bool
}

// clientSession executes one update session for dev over conn — normally
// one v2 Stream (ClientConn.Update and the retry Client open one per
// session) — arming timeout before every I/O and asking for the complete
// image when full is set. On success the device's flash holds the
// server's current version. If the device had an interrupted update
// pending, the session asks for the same delta again and resumes it; if
// the connection or power fails mid-update, the device keeps its
// progress and a later session completes it. Cancelling the context
// aborts in-flight I/O on the connection.
func clientSession(ctx context.Context, conn net.Conn, dev *device.Device, timeout time.Duration, full bool) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	stop := cancelOnCtx(ctx, conn)
	defer stop()
	c := withDeadlines(conn, timeout)
	r, w := sessionBufs(c)
	defer putSessionBufs(r, w)

	var h hello
	p, pending := dev.PendingUpdate()
	switch {
	case pending && (p.Full || full):
		// Resuming (or forcing) a full install: the flash is partially
		// overwritten, so there is no meaningful source CRC to report.
		h = hello{Updating: p.Full, WantFull: true, Capacity: dev.FlashCapacity()}
	case pending:
		h = hello{
			Updating: true,
			ImageCRC: p.RefCRC,
			ImageLen: p.RefLen,
			Capacity: dev.FlashCapacity(),
		}
	default:
		crc, err := dev.ImageCRC()
		if err != nil {
			return Result{}, err
		}
		h = hello{
			WantFull: full,
			ImageCRC: crc,
			ImageLen: dev.ImageLen(),
			Capacity: dev.FlashCapacity(),
		}
	}
	if err := writeMsg(w, msgHello, encodeHello(h)); err != nil {
		return Result{}, err
	}
	if err := w.Flush(); err != nil {
		return Result{}, err
	}

	typ, n, err := readMsgHeader(r)
	if err != nil {
		return Result{}, err
	}
	switch typ {
	case msgUpToDate:
		return Result{UpToDate: true}, nil
	case msgError:
		payload, err := readPayload(r, n)
		if err != nil {
			return Result{}, err
		}
		return Result{}, &ServerError{Msg: string(payload)}
	case msgDelta:
		// Stream the delta payload straight into the device.
		res := Result{DeltaBytes: n, Resumed: h.Updating}
		if err := dev.Apply(io.LimitReader(r, n)); err != nil {
			return res, err
		}
		return res, confirm(r, w, dev)
	case msgFull:
		res := Result{DeltaBytes: n, Resumed: h.Updating, FullImage: true}
		if err := dev.InstallFull(io.LimitReader(r, n), n); err != nil {
			return res, err
		}
		return res, confirm(r, w, dev)
	default:
		return Result{}, fmt.Errorf("%w: unexpected message %#x", ErrProtocol, typ)
	}
}

// confirm reports the reconstructed image's CRC and waits for the server's
// verdict, so a transfer corrupted in flight is detected here rather than
// on the next boot.
func confirm(r *bufio.Reader, w *bufio.Writer, dev *device.Device) error {
	crc, err := dev.ImageCRC()
	if err != nil {
		return err
	}
	if err := writeMsg(w, msgStatus, encodeStatus(status{OK: true, ImageCRC: crc})); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	payload, err := readMsg(r, msgAck)
	if err != nil {
		return err
	}
	ok, err := decodeAck(payload)
	if err != nil {
		return err
	}
	if !ok {
		return ErrImageRejected
	}
	return nil
}
