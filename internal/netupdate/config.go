package netupdate

import (
	"context"
	"log/slog"
	"time"

	"ipdelta/internal/diff"
	"ipdelta/internal/netupdate/mux"
	"ipdelta/internal/obs"
)

// config collects every tunable of the update service. Each constructor
// reads only its own fields and accepts only the option types that set
// them, so no option can be passed where it would do nothing.
type config struct {
	// NewServer: delta production and the failure budget.
	algorithm     diff.Algorithm
	failureBudget int

	// NewServer and NewClient: the per-message session deadline and
	// the telemetry sinks.
	messageTimeout time.Duration
	observer       *obs.Registry
	logger         *slog.Logger

	// NewServer, Dial and NewClientConn: the v2 transport limits.
	mux mux.Settings

	// NewClient: the retry ladder.
	maxAttempts       int
	baseBackoff       time.Duration
	fullFallbackAfter int
	seed              uint64
	sleep             func(ctx context.Context, d time.Duration) error
}

// ServerOption configures NewServer.
type ServerOption interface{ applyServer(*config) }

// ClientOption configures NewClient, the retry ladder.
type ClientOption interface{ applyClient(*config) }

// ConnOption configures Dial and NewClientConn.
type ConnOption interface{ applyConn(*config) }

// ServerClientOption is read by both NewServer and NewClient.
type ServerClientOption func(*config)

// ServerConnOption is read by NewServer and by Dial / NewClientConn.
type ServerConnOption func(*config)

// serverOpt and clientOpt are the options one constructor reads.
type (
	serverOpt func(*config)
	clientOpt func(*config)
)

func (o serverOpt) applyServer(c *config)          { o(c) }
func (o clientOpt) applyClient(c *config)          { o(c) }
func (o ServerClientOption) applyServer(c *config) { o(c) }
func (o ServerClientOption) applyClient(c *config) { o(c) }
func (o ServerConnOption) applyServer(c *config)   { o(c) }
func (o ServerConnOption) applyConn(c *config)     { o(c) }

// serverConfig folds opts over the server defaults. The default differ
// is built last, to record into the folded observer.
func serverConfig(opts []ServerOption) config {
	var c config
	for _, o := range opts {
		o.applyServer(&c)
	}
	if c.algorithm == nil {
		c.algorithm = diff.NewLinear(diff.WithObserver(c.observer))
	}
	return c
}

// clientConfig folds opts and fills the retry-ladder defaults.
func clientConfig(opts []ClientOption) config {
	var c config
	for _, o := range opts {
		o.applyClient(&c)
	}
	if c.maxAttempts <= 0 {
		c.maxAttempts = 8
	}
	if c.baseBackoff <= 0 {
		c.baseBackoff = 100 * time.Millisecond
	}
	if c.fullFallbackAfter == 0 {
		c.fullFallbackAfter = 3
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

// connConfig folds opts for a client connection.
func connConfig(opts []ConnOption) config {
	var c config
	for _, o := range opts {
		o.applyConn(&c)
	}
	return c
}

// WithAlgorithm selects the differencing algorithm (default linear,
// recording into WithObserver's registry).
func WithAlgorithm(a diff.Algorithm) ServerOption {
	return serverOpt(func(c *config) { c.algorithm = a })
}

// WithFailureBudget rejects further sessions from a client (keyed by its
// remote host) after n consecutive failed sessions; a successful session
// resets the counter. Zero (the default) disables the budget.
func WithFailureBudget(n int) ServerOption {
	return serverOpt(func(c *config) { c.failureBudget = n })
}

// WithMessageTimeout arms a fresh read/write deadline before every I/O
// operation of a session, so one stalled or byzantine peer cannot pin a
// worker. The server applies it to every session it handles and a Client
// to every attempt. Zero (the default) disables deadlines.
func WithMessageTimeout(d time.Duration) ServerClientOption {
	return ServerClientOption(func(c *config) { c.messageTimeout = d })
}

// WithObserver attaches a metrics registry. Servers record session
// outcomes, bytes served, cache size, mux connection/stream gauges,
// latency histograms and, through the default differ, the diff metrics;
// clients record runs, attempts, retries,
// degradations, and bytes received. Handles resolve once at
// construction; hot paths only bump atomics.
func WithObserver(r *obs.Registry) ServerClientOption {
	return ServerClientOption(func(c *config) { c.observer = r })
}

// WithLogger sets the structured logger for per-session outcome lines.
// The default discards everything.
func WithLogger(l *slog.Logger) ServerClientOption {
	return ServerClientOption(func(c *config) { c.logger = l })
}

// WithStreamLimit caps concurrent update streams per v2 connection: the
// server advertises it as its acceptance limit, the client enforces it
// when opening (default 1024).
func WithStreamLimit(n int) ServerConnOption {
	return ServerConnOption(func(c *config) { c.mux.MaxStreams = n })
}

// WithInitialWindow sets the per-stream receive window in bytes — the
// credit a sender starts with before backpressure engages (default
// 256 KiB).
func WithInitialWindow(n int) ServerConnOption {
	return ServerConnOption(func(c *config) { c.mux.InitialWindow = n })
}

// WithMaxFrame sets the largest DATA frame payload this side accepts
// (default 16 KiB).
func WithMaxFrame(n int) ServerConnOption {
	return ServerConnOption(func(c *config) { c.mux.MaxFrame = n })
}

// WithMaxAttempts bounds total session attempts per Run (default 8).
func WithMaxAttempts(n int) ClientOption {
	return clientOpt(func(c *config) { c.maxAttempts = n })
}

// WithBaseBackoff sets the delay before the first retry; it doubles per
// attempt up to 5s (default 100ms).
func WithBaseBackoff(d time.Duration) ClientOption {
	return clientOpt(func(c *config) { c.baseBackoff = d })
}

// WithFullFallbackAfter sets how many consecutive failed delta sessions
// the client tolerates before degrading to a full-image transfer.
// Session-level rejections degrade immediately. Zero keeps the default
// (3); negative disables the fallback entirely.
func WithFullFallbackAfter(n int) ClientOption {
	return clientOpt(func(c *config) { c.fullFallbackAfter = n })
}

// WithSeed feeds the backoff jitter RNG, for reproducible schedules.
func WithSeed(seed uint64) ClientOption {
	return clientOpt(func(c *config) { c.seed = seed })
}

// WithSleep overrides the inter-attempt wait, letting tests collapse the
// backoff schedule. Nil uses a context-aware timer.
func WithSleep(sleep func(ctx context.Context, d time.Duration) error) ClientOption {
	return clientOpt(func(c *config) { c.sleep = sleep })
}
