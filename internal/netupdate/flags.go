package netupdate

import (
	"context"
	"flag"
	"net"
	"time"
)

// Flags binds the netupdate command-line knobs shared by updated,
// updatec, and iploadgen onto a standard flag.FlagSet, so each command
// registers one helper instead of growing its own copy of the flag
// sprawl. Commands call the Register* methods for the surfaces they
// expose, parse, and then pass ServerOptions() to NewServer,
// ClientOptions() to NewClient and ConnOptions() to Dial /
// NewClientConn.
type Flags struct {
	// Shared session knobs.
	Timeout       time.Duration
	FailureBudget int

	// Client retry ladder.
	Retries       int
	FallbackAfter int

	// v2 transport limits.
	StreamLimit   int
	InitialWindow int
	MaxFrame      int

	// Network fault injection (client side).
	FaultSeed      uint64
	FaultRate      float64
	FaultCorrupt   float64
	FaultDropAfter int64
}

// RegisterServer binds the server-side knobs: the per-message deadline
// and the per-client failure budget.
func (f *Flags) RegisterServer(fs *flag.FlagSet) *Flags {
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-message I/O deadline inside a session (0 = none)")
	fs.IntVar(&f.FailureBudget, "failure-budget", 0, "reject a client after N consecutive failed sessions (0 = never)")
	return f
}

// RegisterClient binds the client-side knobs: the per-message deadline
// and the retry ladder.
func (f *Flags) RegisterClient(fs *flag.FlagSet) *Flags {
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-message I/O deadline inside a session (0 = none)")
	fs.IntVar(&f.Retries, "retries", 8, "maximum session attempts before giving up")
	fs.IntVar(&f.FallbackAfter, "fallback-after", 3, "consecutive failed delta sessions before requesting the full image (-1 = never)")
	return f
}

// RegisterTransport binds the protocol-v2 limits: streams per
// connection, the per-stream receive window, and the frame size bound.
// Zero keeps the negotiated defaults.
func (f *Flags) RegisterTransport(fs *flag.FlagSet) *Flags {
	fs.IntVar(&f.StreamLimit, "stream-limit", 0, "max concurrent update streams per v2 connection (0 = default 1024)")
	fs.IntVar(&f.InitialWindow, "stream-window", 0, "per-stream receive window in bytes (0 = default 256KiB)")
	fs.IntVar(&f.MaxFrame, "max-frame", 0, "largest accepted DATA frame payload in bytes (0 = default 16KiB)")
	return f
}

// RegisterFaults binds the seeded network fault injector knobs.
func (f *Flags) RegisterFaults(fs *flag.FlagSet) *Flags {
	fs.Uint64Var(&f.FaultSeed, "fault-seed", 0, "seed for the network fault injector (and retry jitter)")
	fs.Float64Var(&f.FaultRate, "fault-rate", 0, "injected per-operation session-stream drop probability")
	fs.Float64Var(&f.FaultCorrupt, "fault-corrupt", 0, "injected per-read byte-corruption probability")
	fs.Int64Var(&f.FaultDropAfter, "fault-drop-after", 0, "kill each session stream after exactly N bytes (0 = never)")
	return f
}

// ServerOptions maps the parsed knobs onto NewServer's options. A
// transport limit left at zero keeps the negotiated default.
func (f *Flags) ServerOptions() []ServerOption {
	return []ServerOption{
		WithMessageTimeout(f.Timeout),
		WithFailureBudget(f.FailureBudget),
		WithStreamLimit(f.StreamLimit),
		WithInitialWindow(f.InitialWindow),
		WithMaxFrame(f.MaxFrame),
	}
}

// ClientOptions maps the parsed knobs onto NewClient's retry ladder; the
// fault seed also seeds the backoff jitter.
func (f *Flags) ClientOptions() []ClientOption {
	return []ClientOption{
		WithMessageTimeout(f.Timeout),
		WithMaxAttempts(f.Retries),
		WithFullFallbackAfter(f.FallbackAfter),
		WithSeed(f.FaultSeed),
	}
}

// ConnOptions maps the parsed knobs onto Dial / NewClientConn's options.
func (f *Flags) ConnOptions() []ConnOption {
	return []ConnOption{
		WithStreamLimit(f.StreamLimit),
		WithInitialWindow(f.InitialWindow),
		WithMaxFrame(f.MaxFrame),
	}
}

// Dialer returns the DialFunc for one Client.Run: each attempt opens a
// fresh stream on cc and, when a fault knob is armed, wraps it in a
// FlakyConn seeded FaultSeed+base+attempt (attempts count from 1), so
// retries see fresh but reproducible network weather. The attempt
// counter is not synchronized: use one Dialer per Run.
func (f *Flags) Dialer(cc *ClientConn, base uint64) DialFunc {
	dial := cc.Dialer()
	if f.FaultRate <= 0 && f.FaultCorrupt <= 0 && f.FaultDropAfter <= 0 {
		return dial
	}
	attempt := uint64(0)
	return func(ctx context.Context) (net.Conn, error) {
		st, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		attempt++
		return NewFlakyConn(st, FaultProfile{
			Seed:           f.FaultSeed + base + attempt,
			DropAfterBytes: f.FaultDropAfter,
			OpFaultRate:    f.FaultRate,
			CorruptRate:    f.FaultCorrupt,
		}), nil
	}
}
