package netupdate

import (
	"context"
	"fmt"
	"net"

	"ipdelta/internal/device"
	"ipdelta/internal/netupdate/mux"
)

// Typed transport errors re-exported from the mux layer so callers can
// classify without importing it.
var (
	// ErrUnknownStream reports a frame addressed to a stream that was
	// never opened — a hostile or desynchronized peer.
	ErrUnknownStream = mux.ErrUnknownStream
	// ErrFrameTooLarge reports a frame length beyond the negotiated
	// bound.
	ErrFrameTooLarge = mux.ErrFrameTooLarge
	// ErrVersionMismatch reports a peer that does not speak protocol v2.
	ErrVersionMismatch = mux.ErrVersionMismatch
)

// ClientConn is one protocol-v2 connection to an update server,
// multiplexing many concurrent update sessions as streams. It is safe
// for concurrent use; a fleet shares few ClientConns instead of dialing
// one TCP connection per device.
type ClientConn struct {
	tr *mux.Transport
}

// Dial connects to an update server at addr over TCP and negotiates
// protocol v2. The transport limits (WithStreamLimit, WithInitialWindow,
// WithMaxFrame) shape the connection. Dialing a server that does not speak v2 fails with
// ErrVersionMismatch.
func Dial(ctx context.Context, addr string, opts ...ConnOption) (*ClientConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	cc, err := NewClientConn(conn, opts...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cc, nil
}

// NewClientConn negotiates protocol v2 on an already established
// connection (any net.Conn: TCP, a pipe, a fault injector).
func NewClientConn(conn net.Conn, opts ...ConnOption) (*ClientConn, error) {
	cfg := connConfig(opts)
	tr, err := mux.Client(conn, cfg.mux)
	if err != nil {
		return nil, fmt.Errorf("netupdate: v2 handshake: %w", err)
	}
	return &ClientConn{tr: tr}, nil
}

// OpenStream opens one multiplexed stream, blocking while the
// connection is at its negotiated stream limit. The stream is a
// net.Conn; hand it to anything that speaks the session protocol.
func (cc *ClientConn) OpenStream(ctx context.Context) (*mux.Stream, error) {
	return cc.tr.OpenContext(ctx)
}

// Update runs exactly one update session for dev on a fresh stream: it
// neither retries nor degrades to a full image, and returns the
// session's error as is. For the retry ladder, hand Dialer to a Client.
func (cc *ClientConn) Update(ctx context.Context, dev *device.Device) (Result, error) {
	st, err := cc.OpenStream(ctx)
	if err != nil {
		return Result{}, err
	}
	defer st.Close()
	return clientSession(ctx, st, dev, 0, false)
}

// Dialer returns a DialFunc for the retry Client: each session attempt
// opens a fresh stream on this connection instead of a fresh TCP
// connection.
func (cc *ClientConn) Dialer() DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		return cc.OpenStream(ctx)
	}
}

// Close tears the connection down; every open stream fails.
func (cc *ClientConn) Close() error { return cc.tr.Close() }
