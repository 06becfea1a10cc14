// Command iploadgen load-tests an update server over protocol v2: it
// drives conns × streams concurrent device update sessions — every
// session a real device image reconstructed in place over its own
// multiplexed stream — and reports convergence, throughput, and exact
// p50/p99/p999 session latency.
//
// By default the harness spins up an in-process update server on a
// loopback listener, so one binary exercises the full TCP + mux + session
// stack; -server points it at an external updated instead. The -fault-*
// flags wrap every session attempt in a seeded network fault injector, so
// a faulted run is reproducible bit for bit; convergence is still
// expected because the retry ladder resumes interrupted updates and
// degrades to full images.
//
// Usage:
//
//	iploadgen [-server ADDR] [-conns N] [-streams N] [-image-size N]
//	          [-releases N] [-seed N] [-timeout D] [-retries N]
//	          [-fallback-after N] [-fault-seed N] [-fault-rate P]
//	          [-fault-corrupt P] [-fault-drop-after N]
//	          [-metrics-addr ADDR] [-linger D] [-v]
//
// The process exits non-zero unless every session converges, which makes
// it usable as a CI gate directly. With -metrics-addr it serves its
// metrics registry on /metrics (counters, in-flight gauges, and
// ipdelta_loadgen_p{50,99,999}_us latency gauges) during the run and for
// -linger afterwards, so an external check can scrape the percentiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipdelta/internal/corpus"
	"ipdelta/internal/device"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iploadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iploadgen", flag.ContinueOnError)
	server := fs.String("server", "", "external updated address (empty = in-process server)")
	conns := fs.Int("conns", 200, "v2 connections to open")
	streams := fs.Int("streams", 50, "concurrent update streams per connection")
	imageSize := fs.Int("image-size", 4<<10, "release image size in bytes")
	releases := fs.Int("releases", 3, "release history depth (devices start on a random older release)")
	seed := fs.Uint64("seed", 1, "seed for device baselines and workload shuffling")
	var nf netupdate.Flags
	nf.RegisterClient(fs)
	nf.RegisterTransport(fs)
	nf.RegisterFaults(fs)
	metricsAddr := fs.String("metrics-addr", "", "serve the loadgen metrics registry on this HTTP address")
	linger := fs.Duration("linger", 0, "keep serving /metrics this long after the run (for scrapers)")
	verbose := fs.Bool("v", false, "log each failed session (structured, stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns <= 0 || *streams <= 0 {
		return errors.New("iploadgen: -conns and -streams must be positive")
	}
	if *releases < 2 {
		return errors.New("iploadgen: need at least 2 releases to have something to update")
	}

	history := makeReleases(*releases, *imageSize, int64(*seed))
	target := history[len(history)-1]
	targetCRC := crc32.ChecksumIEEE(target)

	// The client must be allowed to open -streams concurrent streams per
	// connection; raise the advertised limit when the flag did not.
	if nf.StreamLimit < *streams {
		nf.StreamLimit = *streams
	}

	addr := *server
	if addr == "" {
		srv, err := netupdate.NewServer(history,
			netupdate.WithStreamLimit(nf.StreamLimit),
			netupdate.WithMessageTimeout(nf.Timeout))
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		go srv.Serve(l) //nolint:errcheck // returns on listener close
		addr = l.Addr().String()
		fmt.Printf("iploadgen: in-process server on %s (%d releases × %d bytes)\n",
			addr, len(history), len(target))
	}

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer ml.Close()
		hmux := http.NewServeMux()
		hmux.Handle("/metrics", reg)
		fmt.Printf("iploadgen: metrics on http://%s/metrics\n", ml.Addr())
		go http.Serve(ml, hmux) //nolint:errcheck // returns on listener close
	}
	logger := obs.NopLogger()
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	total := *conns * *streams
	fmt.Printf("iploadgen: %d sessions over %d conns × %d streams/conn (fault seed %d, rate %.3f)\n",
		total, *conns, *streams, nf.FaultSeed, nf.FaultRate)

	res, err := drive(addr, *conns, *streams, &nf, history, targetCRC, reg, logger, int64(*seed))
	if err != nil {
		return err
	}
	report(res, total, reg)
	if *linger > 0 {
		fmt.Printf("iploadgen: lingering %v for metric scrapers\n", *linger)
		time.Sleep(*linger)
	}
	if res.converged != total {
		return fmt.Errorf("convergence %d/%d — %d sessions failed", res.converged, total, total-res.converged)
	}
	return nil
}

// makeReleases builds a chained history: each release splices fresh
// firmware-profile content over a sixth of its predecessor.
func makeReleases(n, size int, seed int64) [][]byte {
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: size, ChangeRate: 0, Seed: seed})
	history := [][]byte{base.Ref}
	cur := base.Ref
	for k := 1; k < n; k++ {
		gen := corpus.Generate(corpus.PairSpec{Profile: corpus.Firmware, Size: size, ChangeRate: 0.06, Seed: seed + int64(k)})
		v := append([]byte(nil), cur...)
		splice := len(v) / 6
		if splice == 0 {
			splice = len(v)
		}
		at := (k * 3 * splice) % (len(v) - splice + 1)
		copy(v[at:at+splice], gen.Version[:splice])
		history = append(history, v)
		cur = v
	}
	return history
}

// result aggregates one load run.
type result struct {
	converged  int
	fallbacks  int
	attempts   int64
	bytes      int64
	elapsed    time.Duration
	peak       int64
	latencies  []time.Duration // one per session, unsorted
	firstError string
}

// drive opens the connections and runs every session to completion.
func drive(addr string, conns, streams int, nf *netupdate.Flags, history [][]byte, targetCRC uint32,
	reg *obs.Registry, logger *slog.Logger, seed int64) (*result, error) {

	ctx := context.Background()
	ccs := make([]*netupdate.ClientConn, conns)
	for i := range ccs {
		cc, err := netupdate.Dial(ctx, addr, nf.ConnOptions()...)
		if err != nil {
			return nil, fmt.Errorf("dial conn %d: %w", i, err)
		}
		defer cc.Close()
		ccs[i] = cc
	}

	client := netupdate.NewClient(append(nf.ClientOptions(),
		netupdate.WithObserver(reg), netupdate.WithLogger(logger))...)
	total := conns * streams
	res := &result{latencies: make([]time.Duration, total)}

	var (
		mu        sync.Mutex
		inflight  atomic.Int64
		peak      atomic.Int64
		wg        sync.WaitGroup
		sessions  = reg.Counter("ipdelta_loadgen_sessions_total")
		converged = reg.Counter("ipdelta_loadgen_converged_total")
		failed    = reg.Counter("ipdelta_loadgen_failed_total")
		inflightG = reg.Gauge("ipdelta_loadgen_inflight")
	)
	start := time.Now()
	for si := 0; si < total; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			cc := ccs[si/streams]
			// Deterministic per-session workload: baseline release and
			// fault seeds derive from the run seed and session index.
			sseed := uint64(seed) + uint64(si)*0x9E3779B97F4A7C15
			baseline := history[int(sseed%uint64(len(history)-1))]
			flash, err := device.NewFlash(baseline, int64(2*len(history[len(history)-1])))
			if err != nil {
				fail(res, &mu, failed, "flash: "+err.Error())
				return
			}
			dev := device.New(flash, int64(len(baseline)), device.DefaultWorkBufSize)

			cur := inflight.Add(1)
			inflightG.Set(inflight.Load())
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			sessions.Inc()
			t0 := time.Now()
			rep, err := client.Run(ctx, nf.Dialer(cc, sseed), dev)
			lat := time.Since(t0)
			inflight.Add(-1)
			inflightG.Set(inflight.Load())

			mu.Lock()
			res.latencies[si] = lat
			res.attempts += int64(rep.Attempts)
			if rep.FellBack {
				res.fallbacks++
			}
			mu.Unlock()
			if err != nil {
				fail(res, &mu, failed, err.Error())
				logger.Warn("session failed", "component", "loadgen", "session", si, "err", err)
				return
			}
			img := dev.Image()
			if crc32.ChecksumIEEE(img) != targetCRC {
				fail(res, &mu, failed, "image mismatch after convergence")
				return
			}
			mu.Lock()
			res.converged++
			res.bytes += rep.Result.DeltaBytes
			mu.Unlock()
			converged.Inc()
		}(si)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.peak = peak.Load()
	return res, nil
}

// fail records one failed session (keeping only the first error text).
func fail(res *result, mu *sync.Mutex, failed *obs.Counter, msg string) {
	failed.Inc()
	mu.Lock()
	if res.firstError == "" {
		res.firstError = msg
	}
	mu.Unlock()
}

// report prints the summary and publishes the percentile gauges.
func report(res *result, total int, reg *obs.Registry) {
	lats := append([]time.Duration(nil), res.latencies...)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	p50, p99, p999 := q(0.50), q(0.99), q(0.999)
	reg.Gauge("ipdelta_loadgen_p50_us").Set(p50.Microseconds())
	reg.Gauge("ipdelta_loadgen_p99_us").Set(p99.Microseconds())
	reg.Gauge("ipdelta_loadgen_p999_us").Set(p999.Microseconds())
	reg.Gauge("ipdelta_loadgen_peak_inflight").Set(res.peak)

	sec := res.elapsed.Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	fmt.Printf("iploadgen: converged %d/%d (%.2f%%) in %v — peak %d in flight, %d attempts, %d fallbacks\n",
		res.converged, total, 100*float64(res.converged)/float64(total),
		res.elapsed.Round(time.Millisecond), res.peak, res.attempts, res.fallbacks)
	fmt.Printf("iploadgen: latency p50=%v p99=%v p999=%v\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), p999.Round(time.Microsecond))
	fmt.Printf("iploadgen: throughput %.1f sessions/s, %.2f MB/s delta payload\n",
		float64(total)/sec, float64(res.bytes)/sec/1e6)
	if res.firstError != "" {
		fmt.Printf("iploadgen: first failure: %s\n", res.firstError)
	}
}
