package netupdate

import (
	"context"
	"log/slog"
	"time"

	"ipdelta/internal/diff"
	"ipdelta/internal/netupdate/mux"
	"ipdelta/internal/obs"
)

// Config collects every tunable of the update service — server, client
// runner, per-session behavior, and the v2 transport — in one place.
// Client, server, and load-generation tooling all build theirs from the
// same Option list, so a knob never has to exist in three spellings.
//
// Construct one implicitly through NewServer / NewClient / Dial / Run
// and the With* options; the zero Config means "all defaults".
type Config struct {
	// --- server-side delta production ---

	// Algorithm is the differencing algorithm.
	Algorithm diff.Algorithm
	// FailureBudget rejects clients after that many consecutive failed
	// sessions; zero disables.
	FailureBudget int

	// --- shared session behavior ---

	// MessageTimeout arms a fresh deadline before every session I/O.
	MessageTimeout time.Duration
	// RequestFull asks for the complete image instead of a delta.
	RequestFull bool
	// Observer receives metrics; nil disables.
	Observer *obs.Registry
	// Logger receives structured log lines; nil discards.
	Logger *slog.Logger

	// --- v2 transport (mux) limits ---

	// StreamLimit caps concurrent streams per connection (both the
	// server's advertised acceptance limit and the client's open limit).
	StreamLimit int
	// InitialWindow is the per-stream receive window in bytes.
	InitialWindow int
	// MaxFrame is the largest DATA frame payload accepted.
	MaxFrame int

	// --- client retry ladder ---

	// MaxAttempts bounds total session attempts (default 8).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry, doubling per
	// attempt up to 5s (default 100ms).
	BaseBackoff time.Duration
	// FullFallbackAfter is how many consecutive failed delta sessions the
	// client tolerates before degrading to a full-image transfer; zero
	// uses the default (3), negative disables the fallback.
	FullFallbackAfter int
	// Seed feeds the backoff jitter RNG, for reproducible schedules.
	Seed uint64
	// Sleep overrides the inter-attempt wait (tests collapse backoff).
	Sleep func(ctx context.Context, d time.Duration) error
}

// Option customizes a Config. The same options configure NewServer,
// NewClient, Dial, and Run; options irrelevant to a particular surface
// are simply ignored by it.
type Option func(*Config)

// apply folds opts into a Config.
func (c *Config) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// muxSettings projects the transport knobs into mux Settings.
func (c *Config) muxSettings() mux.Settings {
	return mux.Settings{
		MaxStreams:    c.StreamLimit,
		InitialWindow: c.InitialWindow,
		MaxFrame:      c.MaxFrame,
	}
}

// withClientDefaults fills the retry-ladder fields.
func (c Config) withClientDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.FullFallbackAfter == 0 {
		c.FullFallbackAfter = 3
	}
	if c.Sleep == nil {
		c.Sleep = sleepCtx
	}
	return c
}

// WithAlgorithm selects the differencing algorithm (default linear).
func WithAlgorithm(a diff.Algorithm) Option {
	return func(c *Config) { c.Algorithm = a }
}

// WithMessageTimeout arms a fresh read/write deadline before every I/O
// operation of a session, so one stalled or byzantine peer cannot pin a
// worker. Zero (the default) disables deadlines.
func WithMessageTimeout(d time.Duration) Option {
	return func(c *Config) { c.MessageTimeout = d }
}

// WithFailureBudget rejects further sessions from a client (keyed by its
// remote host) after n consecutive failed sessions; a successful session
// resets the counter. Zero (the default) disables the budget.
func WithFailureBudget(n int) Option {
	return func(c *Config) { c.FailureBudget = n }
}

// WithObserver attaches a metrics registry. Servers record session
// outcomes, bytes served, cache size, mux connection/stream gauges, and
// latency histograms; clients record runs, attempts, retries,
// degradations, and bytes received. Handles resolve once at
// construction; hot paths only bump atomics.
func WithObserver(r *obs.Registry) Option {
	return func(c *Config) { c.Observer = r }
}

// WithLogger sets the structured logger for per-session outcome lines.
// The default discards everything.
func WithLogger(l *slog.Logger) Option {
	return func(c *Config) { c.Logger = l }
}

// WithStreamLimit caps concurrent update streams per v2 connection: the
// server advertises it as its acceptance limit, the client enforces it
// when opening (default 1024).
func WithStreamLimit(n int) Option {
	return func(c *Config) { c.StreamLimit = n }
}

// WithInitialWindow sets the per-stream receive window in bytes — the
// credit a sender starts with before backpressure engages (default
// 256 KiB).
func WithInitialWindow(n int) Option {
	return func(c *Config) { c.InitialWindow = n }
}

// WithMaxFrame sets the largest DATA frame payload this side accepts
// (default 16 KiB).
func WithMaxFrame(n int) Option {
	return func(c *Config) { c.MaxFrame = n }
}

// WithRequestFull asks the server for the complete current image
// instead of a delta. Any pending delta update is abandoned.
func WithRequestFull(full bool) Option {
	return func(c *Config) { c.RequestFull = full }
}

// WithMaxAttempts bounds total session attempts per Run (default 8).
func WithMaxAttempts(n int) Option {
	return func(c *Config) { c.MaxAttempts = n }
}

// WithBaseBackoff sets the delay before the first retry; it doubles per
// attempt up to 5s (default 100ms).
func WithBaseBackoff(d time.Duration) Option {
	return func(c *Config) { c.BaseBackoff = d }
}

// WithFullFallbackAfter sets how many consecutive failed delta sessions
// the client tolerates before degrading to a full-image transfer.
// Session-level rejections degrade immediately. Zero keeps the default
// (3); negative disables the fallback entirely.
func WithFullFallbackAfter(n int) Option {
	return func(c *Config) { c.FullFallbackAfter = n }
}

// WithSeed feeds the backoff jitter RNG, for reproducible schedules.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithSleep overrides the inter-attempt wait, letting tests collapse the
// backoff schedule. Nil uses a context-aware timer.
func WithSleep(sleep func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Config) { c.Sleep = sleep }
}
