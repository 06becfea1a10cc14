package main

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// rollout-records-1MiB: a cold release rollout. Record-structured 1 MiB
// images. Each round publishes a new release by starting a fresh server
// over the last 16 releases plus the new one — nothing prewarmed — and 64
// devices (four per source release) update at once through two
// closed-loop clients sharing one v2 connection. The timed operation is a
// round: from publish to the last device converged.
const (
	rolloutImage     = 1 << 20
	rolloutSources   = 16
	rolloutPerSource = 4
	rolloutClients   = 2
	rolloutMinRounds = 12
)

type rolloutState struct {
	gen    *recordChain
	window []release // the last rolloutSources releases
	fleet  []*flash
	crcs   []uint32 // every release generated, for the determinism check
}

func setupRollout(cfg config) *rolloutState {
	st := &rolloutState{gen: newRecordChain(cfg.seed, rolloutImage)}
	for k := 0; k < rolloutSources; k++ {
		st.push()
	}
	st.fleet = make([]*flash, rolloutSources*rolloutPerSource)
	for i := range st.fleet {
		st.fleet[i] = newFlash(rolloutImage + rolloutImage/4)
	}
	return st
}

func (st *rolloutState) push() {
	r := newRelease(st.gen.next())
	st.crcs = append(st.crcs, r.crc)
	st.window = append(st.window, r)
}

// round publishes the next release and rolls it out to the fleet,
// returning when it started, how long it took, and its sessions.
func (st *rolloutState) round(ctx context.Context, rng *rand.Rand, b *buildLog, tr *tracer) (time.Duration, []sessionRecord, int, error) {
	st.push()
	history := st.window[len(st.window)-rolloutSources-1:]
	target := history[rolloutSources]
	jobs := make([]int, len(st.fleet)) // source release per device
	for i := range jobs {
		jobs[i] = i / rolloutPerSource
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	devs := make([]*updDevice, len(jobs))
	for i, src := range jobs {
		devs[i] = loadDevice(st.fleet[i], history[src])
	}
	settle()

	span := tr.open("rollout.round", 0, 0)
	var hook diffHook
	if b != nil {
		b.reset(history, span)
		hook = b.hook
	}
	start := time.Now()
	srv, err := startServer(images(history), hook)
	if err != nil {
		return 0, nil, 0, err
	}
	cc, err := dial(ctx, srv.addr())
	if err != nil {
		srv.stop()
		return 0, nil, 0, err
	}
	recs := make([]sessionRecord, len(devs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < rolloutClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(devs); i = int(next.Add(1) - 1) {
				recs[i] = runSession(ctx, cc, devs[i], st.fleet[i], jobs[i], target)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	tr.close(span)
	closeConn(cc)
	srv.stop()
	st.window = append([]release(nil), st.window[len(st.window)-rolloutSources:]...)
	return elapsed, recs, span, nil
}

func runRollout(cfg config) (*outcome, error) {
	ctx := context.Background()
	o := newOutcome()
	var st *rolloutState
	for rep := 0; rep < cfg.setupReps; rep++ {
		st = nil
		settle()
		start := time.Now()
		st = setupRollout(cfg)
		o.setup = append(o.setup, time.Since(start).Seconds())
	}
	var b *buildLog
	var replayFl *flash
	if cfg.tr != nil {
		b = newBuildLog(cfg.tr)
		replayFl = newFlash(rolloutImage + rolloutImage/4)
	}

	rng := newRand(cfg.seed, streamSessions)
	var all []sessionRecord
	var busy time.Duration
	rounds := 0
	for deadline := time.Now().Add(cfg.budget()); rounds < rolloutMinRounds || time.Now().Before(deadline); rounds++ {
		elapsed, recs, span, err := st.round(ctx, rng, b, cfg.tr)
		if err != nil {
			return nil, err
		}
		markCached(recs)
		for _, r := range recs {
			o.addSession(r)
		}
		o.ops = append(o.ops, ms(elapsed))
		o.work += len(recs)
		busy += elapsed
		if cfg.tr != nil {
			history := b.history
			if err := b.replay(); err != nil {
				return nil, err
			}
			if err := traceSessions(o, cfg.tr, span, recs, history, b, replayFl); err != nil {
				return nil, err
			}
		}
		all = append(all, recs...)
	}
	o.peakRSS = peakRSSMB()
	o.workSeconds = busy.Seconds()

	if cfg.tr != nil {
		sessionLayers(o.layers, all)
		buildLayers(o.layers, b.stats, rounds*rolloutSources)
	}
	o.note(checkDeterminism(newRecordChain(cfg.seed, rolloutImage), st.crcs[:3]))
	cycles, err := cyclesBroken(st.window[0].img, st.window[len(st.window)-1].img)
	if err == nil && cycles == 0 {
		err = errors.New("record releases broke no cycles in place")
	}
	o.note(err)
	return o, nil
}
