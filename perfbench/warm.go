package main

import (
	"context"
	"time"
)

// serve-warm-4MiB: warm serving. Eight chained firmware releases of 4 MiB.
// Set-up ends with a warm-up pass of one session per source release, so
// every delta is built before timing (without relying on Prewarm). Then one
// closed-loop client on one v2 connection updates devices from seeded
// shuffles of the old releases until the budget is spent. The device flash is
// reloaded outside the timed call. The timed operation is one session.
const (
	warmImage    = 4 << 20
	warmReleases = 8
)

type warmState struct {
	history []release
	srv     *updateServer
	cc      *clientConn
	fl      *flash
	builds  *buildLog
}

func (w *warmState) close() {
	if w.cc != nil {
		closeConn(w.cc)
	}
	w.srv.stop()
}

func setupWarm(ctx context.Context, cfg config, o *outcome) (*warmState, error) {
	gen := newFirmwareChain(cfg.seed, warmImage)
	w := &warmState{fl: newFlash(2 * warmImage)}
	for k := 0; k < warmReleases; k++ {
		w.history = append(w.history, newRelease(gen.next()))
	}
	var hook diffHook
	if cfg.tr != nil {
		w.builds = newBuildLog(cfg.tr)
		w.builds.reset(w.history, 0)
		hook = w.builds.hook
	}
	srv, err := startServer(images(w.history), hook)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	if w.cc, err = dial(ctx, srv.addr()); err != nil {
		w.close()
		return nil, err
	}
	target := w.history[warmReleases-1]
	for src := 0; src < warmReleases-1; src++ {
		dev := loadDevice(w.fl, w.history[src])
		rec := runSession(ctx, w.cc, dev, w.fl, src, target)
		o.attempted++
		if rec.err != nil {
			o.fail("warm-up session from release %d: %v", src, rec.err)
		}
	}
	return w, nil
}

func runWarm(cfg config) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	var w *warmState
	for rep := 0; rep < cfg.setupReps; rep++ {
		if w != nil {
			w.close()
			settle()
		}
		start := time.Now()
		var err error
		if w, err = setupWarm(ctx, cfg, o); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}
	defer w.close()
	if w.builds != nil {
		if err := w.builds.replay(); err != nil {
			return nil, err
		}
	}

	target := w.history[warmReleases-1]
	pick := newRand(cfg.seed, streamSessions)
	var recs []sessionRecord
	var busy time.Duration
	// Sources come in seeded shuffles of all old releases, so every run
	// serves the same mix of delta sizes.
	var deck []int
	for deadline := time.Now().Add(cfg.budget()); time.Now().Before(deadline); {
		if len(deck) == 0 {
			deck = pick.Perm(warmReleases - 1)
		}
		src := deck[0]
		deck = deck[1:]
		dev := loadDevice(w.fl, w.history[src])
		rec := runSession(ctx, w.cc, dev, w.fl, src, target)
		rec.cached = true
		o.addSession(rec)
		if rec.err == nil {
			o.ops = append(o.ops, rec.ms())
			busy += rec.end.Sub(rec.start)
		}
		recs = append(recs, rec)
	}
	o.peakRSS = peakRSSMB()
	o.work, o.workSeconds = len(o.ops), busy.Seconds()

	if cfg.tr != nil {
		if err := traceSessions(o, cfg.tr, 0, recs, w.history, w.builds, newFlash(2*warmImage)); err != nil {
			return nil, err
		}
		sessionLayers(o.layers, recs)
		buildLayers(o.layers, w.builds.stats, warmReleases-1)
	}
	o.note(checkDeterminism(newFirmwareChain(cfg.seed, warmImage), crcs(w.history[:3])))
	return o, nil
}
