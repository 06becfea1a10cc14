package netupdate

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"time"
)

// readers and writers pool the 4 KiB buffers each end of a session reads
// and writes its messages through. A session takes a pair when it starts
// and resets both to nil before it puts them back, so a pooled buffer
// keeps no connection alive.
var (
	readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	writers = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

// sessionBufs returns a pooled reader and writer over c; the session hands
// them back with putSessionBufs when it ends.
func sessionBufs(c io.ReadWriter) (*bufio.Reader, *bufio.Writer) {
	r := readers.Get().(*bufio.Reader)
	r.Reset(c)
	w := writers.Get().(*bufio.Writer)
	w.Reset(c)
	return r, w
}

// putSessionBufs detaches r and w from their connection and pools them.
func putSessionBufs(r *bufio.Reader, w *bufio.Writer) {
	r.Reset(nil)
	readers.Put(r)
	w.Reset(nil)
	writers.Put(w)
}

// aLongTimeAgo is a non-zero instant in the distant past; setting it as a
// connection deadline forces pending and future I/O to fail immediately.
var aLongTimeAgo = time.Unix(1, 0)

// deadlineConn arms a fresh read/write deadline before every I/O
// operation. That gives per-message (in fact per-read/per-write) timeout
// semantics: one stalled peer cannot pin a session forever, while a slow
// but steadily flowing transfer — a throttled link streaming a large delta
// — never trips the deadline.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

// Read implements net.Conn.
func (d *deadlineConn) Read(p []byte) (int, error) {
	if err := d.Conn.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.Conn.Read(p)
}

// Write implements net.Conn.
func (d *deadlineConn) Write(p []byte) (int, error) {
	if err := d.Conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.Conn.Write(p)
}

// withDeadlines wraps conn with per-I/O deadlines when timeout > 0.
func withDeadlines(conn net.Conn, timeout time.Duration) net.Conn {
	if timeout <= 0 {
		return conn
	}
	return &deadlineConn{Conn: conn, timeout: timeout}
}

// cancelOnCtx aborts conn's in-flight and future I/O when ctx is
// cancelled, by moving the connection deadline into the past. The returned
// stop function releases the watcher and must be called when the session
// ends.
func cancelOnCtx(ctx context.Context, conn net.Conn) func() bool {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	return context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(aLongTimeAgo)
	})
}
