package netupdate

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"ipdelta/internal/device"
	"ipdelta/internal/obs"
)

// DialFunc opens a fresh connection for one session attempt. The runner
// closes whatever it returns.
type DialFunc func(ctx context.Context) (net.Conn, error)

// RunReport summarizes a runner invocation: how hard the update was, not
// just whether it landed.
type RunReport struct {
	// Result is the final successful session's result.
	Result Result
	// Attempts counts sessions started, including the successful one.
	Attempts int
	// FellBack is true when the runner degraded to a full-image transfer.
	FellBack bool
	// FailureLog holds one line per failed attempt, for chaos forensics.
	FailureLog []string
}

// Client drives update sessions to convergence: transient faults are
// retried with capped exponential backoff and seeded jitter (each retry
// resumes the device where the last attempt died), and persistent delta
// failures degrade to a full-image transfer. A Client may be shared by
// concurrent Run calls.
type Client struct {
	cfg config
	met *clientMetrics
	log *slog.Logger

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient builds a retrying update client (unset knobs take
// defaults).
func NewClient(opts ...ClientOption) *Client {
	cfg := clientConfig(opts)
	return &Client{
		cfg: cfg,
		met: resolveClientMetrics(cfg.observer),
		log: obs.OrNop(cfg.logger),
		rng: rand.New(rand.NewPCG(cfg.seed, 1)),
	}
}

// errClass buckets session errors by the right response.
type errClass int

const (
	// classTransient: the transport or the device hiccuped; the same
	// session, retried, can succeed (and resumes where it died).
	classTransient errClass = iota
	// classDegrade: the delta path itself was rejected — server verdict,
	// resume mismatch, corrupted image. Retrying the same delta is
	// pointless; the full-image ladder rung is next.
	classDegrade
	// classFatal: no retry or degradation can help (image cannot fit,
	// context cancelled).
	classFatal
)

// classify maps a session error to its retry class.
func classify(err error) errClass {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return classFatal
	case errors.Is(err, device.ErrImageTooLarge), errors.Is(err, device.ErrScratchBudget):
		return classFatal
	case errors.Is(err, device.ErrPowerCut), errors.Is(err, device.ErrTransientIO):
		return classTransient
	case errors.Is(err, ErrImageRejected),
		errors.Is(err, device.ErrResumeMismatch),
		errors.Is(err, device.ErrWrongVersion),
		errors.Is(err, device.ErrNotInPlace):
		return classDegrade
	}
	var se *ServerError
	if errors.As(err, &se) {
		return classDegrade
	}
	// Everything else — injected faults, timeouts, truncated or corrupt
	// streams (protocol and codec errors), dial failures — is a transport
	// problem: retry.
	return classTransient
}

// Run updates dev to the server's current version, dialling a fresh
// connection per attempt, until it converges, turns out to be up to date,
// exhausts the attempt budget, or hits a fatal error.
func (ru *Client) Run(ctx context.Context, dial DialFunc, dev *device.Device) (RunReport, error) {
	ru.met.runs.Inc()
	rep, err := ru.run(ctx, dial, dev)
	if err != nil {
		ru.met.runFailures.Inc()
		return rep, err
	}
	ru.met.bytesReceived.Add(rep.Result.DeltaBytes)
	if rep.Result.UpToDate {
		ru.met.upToDate.Inc()
	}
	if rep.Result.FullImage {
		ru.met.fullTransfers.Inc()
	}
	return rep, nil
}

func (ru *Client) run(ctx context.Context, dial DialFunc, dev *device.Device) (RunReport, error) {
	var rep RunReport
	full := false
	if p, ok := dev.PendingUpdate(); ok && p.Full {
		// A previous run already degraded; resume the full install.
		full = true
		rep.FellBack = true
	}
	degrade := func() {
		full = true
		rep.FellBack = true
		ru.met.degradations.Inc()
	}
	deltaFailures := 0
	var lastErr error
	for attempt := 1; attempt <= ru.cfg.maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Attempts = attempt
		ru.met.attempts.Inc()
		if attempt > 1 {
			ru.met.retries.Inc()
		}
		res, err := ru.attempt(ctx, dial, dev, full)
		if err == nil {
			rep.Result = res
			ru.log.Info("update converged",
				"component", "client", "outcome", "ok",
				"attempt", attempt, "bytes", res.DeltaBytes, "full", res.FullImage)
			return rep, nil
		}
		lastErr = err
		ru.log.Warn("attempt failed",
			"component", "client", "outcome", "error",
			"attempt", attempt, "full", full, "err", err)
		rep.FailureLog = append(rep.FailureLog,
			fmt.Sprintf("attempt %d (full=%v): %v", attempt, full, err))
		switch classify(err) {
		case classFatal:
			return rep, err
		case classDegrade:
			if !full && ru.cfg.fullFallbackAfter > 0 {
				degrade()
			}
		case classTransient:
			if !full {
				deltaFailures++
				if ru.cfg.fullFallbackAfter > 0 && deltaFailures >= ru.cfg.fullFallbackAfter {
					degrade()
				}
			}
		}
		if attempt < ru.cfg.maxAttempts {
			if err := ru.cfg.sleep(ctx, ru.backoff(attempt)); err != nil {
				return rep, err
			}
		}
	}
	return rep, fmt.Errorf("netupdate: retry budget exhausted after %d attempts: last error: %w",
		ru.cfg.maxAttempts, lastErr)
}

// attempt runs one session on a fresh connection.
func (ru *Client) attempt(ctx context.Context, dial DialFunc, dev *device.Device, full bool) (Result, error) {
	defer ru.met.attemptStage.Start().End()
	conn, err := dial(ctx)
	if err != nil {
		return Result{}, err
	}
	defer conn.Close()
	return clientSession(ctx, conn, dev, ru.cfg.messageTimeout, full)
}

// maxBackoff caps the exponential retry delay.
const maxBackoff = 5 * time.Second

// backoff returns the capped exponential delay for the given (1-based)
// attempt, jittered to a uniform value in [d/2, d) so a fleet knocked over
// together does not reconnect in lockstep.
func (ru *Client) backoff(attempt int) time.Duration {
	d := ru.cfg.baseBackoff << (attempt - 1)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	ru.mu.Lock()
	jitter := ru.rng.Float64()
	ru.mu.Unlock()
	return d/2 + time.Duration(jitter*float64(d/2))
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
