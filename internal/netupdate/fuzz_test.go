package netupdate

import (
	"bytes"
	"context"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"ipdelta/internal/device"
)

// scriptConn is a net.Conn whose reads replay a fixed byte script and whose
// writes vanish — the shape of a byzantine peer for fuzzing: it answers with
// whatever the fuzzer invented, regardless of what we sent it.
type scriptConn struct {
	r *bytes.Reader
}

func newScriptConn(data []byte) *scriptConn {
	return &scriptConn{r: bytes.NewReader(data)}
}

func (c *scriptConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *scriptConn) Close() error                       { return nil }
func (c *scriptConn) LocalAddr() net.Addr                { return nil }
func (c *scriptConn) RemoteAddr() net.Addr               { return nil }
func (c *scriptConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzSession feeds fuzzer-controlled bytes to both ends of the update
// protocol: a server session whose client is byzantine, and a client session
// whose server is byzantine. Neither may panic, hang, or allocate
// wire-claimed amounts of memory, no matter the input.
func FuzzSession(f *testing.F) {
	history := makeHistory(2, 1<<10, 40)
	srv, err := NewServer(history)
	if err != nil {
		f.Fatal(err)
	}
	oldCRC := crc32.ChecksumIEEE(history[0])
	curCRC := crc32.ChecksumIEEE(history[1])

	// Seed the corpus with every message shape the protocol knows, plus
	// framing edge cases.
	f.Add(frame(msgHello, encodeHello(hello{ImageCRC: curCRC, ImageLen: 1 << 10, Capacity: 4 << 10})))
	f.Add(frame(msgHello, encodeHello(hello{ImageCRC: oldCRC, ImageLen: 1 << 10, Capacity: 4 << 10})))
	f.Add(frame(msgHello, encodeHello(hello{WantFull: true, ImageCRC: oldCRC, ImageLen: 1 << 10, Capacity: 4 << 10})))
	f.Add(frame(msgHello, encodeHello(hello{Updating: true, ImageCRC: oldCRC, ImageLen: 1 << 10, Capacity: 4 << 10})))
	// A whole happy-path server transcript: hello, then a status.
	f.Add(append(
		frame(msgHello, encodeHello(hello{ImageCRC: oldCRC, ImageLen: 1 << 10, Capacity: 4 << 10})),
		frame(msgStatus, encodeStatus(status{OK: true, ImageCRC: curCRC}))...))
	// Client-direction shapes: server replies.
	f.Add(frame(msgUpToDate, nil))
	f.Add(frame(msgError, []byte("unknown version")))
	f.Add(append(frame(msgFull, history[1]), frame(msgAck, encodeAck(true))...))
	f.Add(append(frame(msgDelta, []byte{0, 1, 2, 3}), frame(msgAck, encodeAck(false))...))
	// Framing hostility: truncated, oversize, and huge-claim messages.
	f.Add(frame(msgHello, []byte{1, 2}))
	f.Add(hostileFrame(msgDelta, uint64(maxMessage)+7, nil))
	f.Add(hostileFrame(msgFull, 512<<20, []byte("tiny")))
	f.Add([]byte{msgStatus})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: a byzantine client, fed to the per-stream session
		// handler every v2 stream runs (the hello/status parsers).
		_ = srv.handleSession(newScriptConn(data))

		// Client side: a byzantine server. The device is tiny so a
		// fuzzer-crafted FULL or DELTA cannot make it do much work.
		flash, err := device.NewFlash(history[0], 4<<10)
		if err != nil {
			t.Fatal(err)
		}
		dev := device.New(flash, int64(len(history[0])), 256)
		_, _ = clientSession(context.Background(), newScriptConn(data), dev, 0, false)
	})
}
