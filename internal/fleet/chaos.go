package fleet

import (
	"context"
	"fmt"
	"hash/crc32"
	"log/slog"
	"math/rand/v2"
	"net"
	"time"

	"ipdelta/internal/device"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
)

// ChaosDeviceSpec places one device in a chaos rollout.
type ChaosDeviceSpec struct {
	// Release indexes the version the device currently runs. -1 means the
	// device runs an image the server has never seen (a corrupted or
	// sideloaded build), which forces the full-image fallback path.
	Release int
	// CapacitySlack is extra flash beyond max(installed, new) as a
	// fraction, as in DeviceSpec.
	CapacitySlack float64
	// PowerCutEveryOps arms a recurring storage power cut: every n-th
	// flash operation fails mid-update. Zero disables.
	PowerCutEveryOps int64
	// FlashWriteFailProb makes each flash write fail with this
	// probability (transient flaky-flash faults).
	FlashWriteFailProb float64
}

// ChaosConfig describes a whole-fleet rollout under combined storage and
// network fault injection. All randomness is derived from Seed, so a
// failing run replays exactly.
type ChaosConfig struct {
	// Releases is the version history, oldest first; the last entry is
	// distributed.
	Releases [][]byte
	// Devices is the fleet.
	Devices []ChaosDeviceSpec
	// Seed feeds every fault injector and backoff jitter in the run.
	Seed uint64
	// DropRate is the per-operation probability that a session stream dies.
	DropRate float64
	// CorruptRate is the per-read probability of a flipped byte.
	CorruptRate float64
	// SpikeRate/Spike inject latency spikes (exercising MessageTimeout).
	SpikeRate float64
	Spike     time.Duration
	// MaxAttempts bounds session attempts per device (default 8).
	MaxAttempts int
	// FullFallbackAfter degrades a device to a full-image transfer after
	// this many consecutive failed delta sessions (default 3).
	FullFallbackAfter int
	// MessageTimeout is the per-I/O deadline inside sessions.
	MessageTimeout time.Duration
	// BaseBackoff seeds the retry backoff schedule (default 100ms; tests
	// use ~1ms to keep chaos runs fast).
	BaseBackoff time.Duration
	// WorkBufSize is the device working buffer (default
	// device.DefaultWorkBufSize).
	WorkBufSize int
	// Observer, when non-nil, receives the whole run's metrics: the shared
	// server's session counters, every device runner's attempt/retry/
	// degradation counters, and fleet rollup counters
	// (ipdelta_fleet_devices_total, _converged_total, _fallbacks_total,
	// _attempts_total).
	Observer *obs.Registry
	// Logger receives per-device outcome lines (and is passed to the
	// server and runners for their session lines). Nil discards.
	Logger *slog.Logger
}

// ChaosDeviceReport is one device's rollout outcome.
type ChaosDeviceReport struct {
	Device    int
	Attempts  int
	FellBack  bool
	Converged bool
	Err       string
	// BytesOnWire counts the bytes that crossed the device's streams,
	// both directions, summed over its attempts.
	BytesOnWire int64
}

// ChaosOutcome aggregates a chaos rollout.
type ChaosOutcome struct {
	Seed          uint64
	Devices       int
	Converged     int
	Fallbacks     int
	TotalAttempts int
	BytesOnWire   int64
	Makespan      time.Duration
	PerDevice     []ChaosDeviceReport
}

// String renders the outcome the way the chaos harness prints it.
func (o *ChaosOutcome) String() string {
	return fmt.Sprintf("chaos seed=%d: %d/%d devices converged, %d fallbacks, %d attempts, %d bytes on wire, makespan %v",
		o.Seed, o.Converged, o.Devices, o.Fallbacks, o.TotalAttempts, o.BytesOnWire, o.Makespan)
}

// deviceSeed derives a per-device fault seed from the run seed.
func deviceSeed(seed uint64, di int) uint64 {
	return seed + uint64(di)*0x9E3779B97F4A7C15
}

// RunChaos drives a whole-fleet rollout through combined storage
// (device.FaultyStore) and network (netupdate.FlakyConn) fault injection,
// retrying each device with the session runner until it converges or
// exhausts its budget. Each device holds one protocol-v2 connection to
// the shared server over a synchronous in-memory pipe, and each attempt
// runs on a fresh stream with the fault injector wrapping the stream, so
// each device's fault sequence is a pure function of the seed. Bytes on
// the wire are counted at the devices' fault injectors: how much of a
// server write lands before a fault resets its stream depends on timing.
func RunChaos(ctx context.Context, cfg ChaosConfig) (*ChaosOutcome, error) {
	if len(cfg.Releases) == 0 {
		return nil, fmt.Errorf("fleet: no releases")
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no devices")
	}
	target := cfg.Releases[len(cfg.Releases)-1]
	targetCRC := crc32.ChecksumIEEE(target)
	srv, err := netupdate.NewServer(cfg.Releases,
		netupdate.WithObserver(cfg.Observer),
		netupdate.WithLogger(cfg.Logger))
	if err != nil {
		return nil, err
	}
	workBuf := cfg.WorkBufSize
	if workBuf <= 0 {
		workBuf = device.DefaultWorkBufSize
	}

	out := &ChaosOutcome{Seed: cfg.Seed, Devices: len(cfg.Devices)}
	out.PerDevice = make([]ChaosDeviceReport, len(cfg.Devices))
	start := time.Now()
	errs := make(chan error, len(cfg.Devices))
	for di, spec := range cfg.Devices {
		go func(di int, spec ChaosDeviceSpec) {
			rep, err := runChaosDevice(ctx, cfg, srv, spec, di, targetCRC, int64(len(target)), workBuf)
			out.PerDevice[di] = rep
			errs <- err
		}(di, spec)
	}
	var firstErr error
	for range cfg.Devices {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out.Makespan = time.Since(start)
	log := obs.OrNop(cfg.Logger)
	for _, rep := range out.PerDevice {
		out.BytesOnWire += rep.BytesOnWire
		out.TotalAttempts += rep.Attempts
		if rep.FellBack {
			out.Fallbacks++
		}
		if rep.Converged {
			out.Converged++
		}
		log.Info("device rollout",
			"component", "fleet", "device", rep.Device,
			"outcome", deviceOutcome(rep), "attempt", rep.Attempts,
			"fellback", rep.FellBack, "err", rep.Err)
	}
	r := cfg.Observer // a nil registry resolves nil counters, which ignore Add
	r.Counter("ipdelta_fleet_devices_total").Add(int64(out.Devices))
	r.Counter("ipdelta_fleet_converged_total").Add(int64(out.Converged))
	r.Counter("ipdelta_fleet_fallbacks_total").Add(int64(out.Fallbacks))
	r.Counter("ipdelta_fleet_attempts_total").Add(int64(out.TotalAttempts))
	return out, nil
}

// deviceOutcome labels one device's rollout for the structured log.
func deviceOutcome(rep ChaosDeviceReport) string {
	if rep.Converged {
		return "converged"
	}
	return "failed"
}

// runChaosDevice rolls one device forward under its fault profile. The
// returned error covers configuration problems only; session failures land
// in the report.
func runChaosDevice(ctx context.Context, cfg ChaosConfig, srv *netupdate.Server, spec ChaosDeviceSpec, di int, targetCRC uint32, targetLen int64, workBuf int) (ChaosDeviceReport, error) {
	rep := ChaosDeviceReport{Device: di}
	seed := deviceSeed(cfg.Seed, di)

	var img []byte
	switch {
	case spec.Release >= 0 && spec.Release < len(cfg.Releases):
		img = cfg.Releases[spec.Release]
	case spec.Release == -1:
		img = strangerImage(cfg.Releases[0], seed)
	default:
		return rep, fmt.Errorf("fleet: device %d runs unknown release %d", di, spec.Release)
	}
	capacity := maxI64(int64(len(img)), targetLen)
	capacity += int64(float64(capacity) * spec.CapacitySlack)
	flash, err := device.NewFlash(img, capacity)
	if err != nil {
		return rep, err
	}
	store := device.NewFaultyStore(flash)
	if spec.PowerCutEveryOps > 0 {
		store.FailEveryOps(spec.PowerCutEveryOps)
	}
	if spec.FlashWriteFailProb > 0 {
		store.WithRandomWriteFailures(spec.FlashWriteFailProb, int64(seed))
	}
	dev := device.New(store, int64(len(img)), workBuf)

	// Each attempt opens a fresh stream on the device's one connection to
	// the shared server, faulted with a per-attempt seed so retries see
	// fresh (but reproducible) network weather; a fault kills the stream
	// and the connection shrugs it off.
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = srv.HandleConn(server) // returns when the connection ends
	}()
	cc, err := netupdate.NewClientConn(client)
	if err != nil {
		client.Close()
		return rep, err
	}
	defer cc.Close()
	var streams []*netupdate.FlakyConn
	dial := func(ctx context.Context) (net.Conn, error) {
		st, err := cc.OpenStream(ctx)
		if err != nil {
			return nil, err
		}
		fc := netupdate.NewFlakyConn(st, netupdate.FaultProfile{
			Seed:        seed + uint64(len(streams)+1),
			OpFaultRate: cfg.DropRate,
			CorruptRate: cfg.CorruptRate,
			SpikeRate:   cfg.SpikeRate,
			Spike:       cfg.Spike,
		})
		streams = append(streams, fc)
		return fc, nil
	}
	runner := netupdate.NewClient(
		netupdate.WithMaxAttempts(cfg.MaxAttempts),
		netupdate.WithBaseBackoff(cfg.BaseBackoff),
		netupdate.WithMessageTimeout(cfg.MessageTimeout),
		netupdate.WithFullFallbackAfter(cfg.FullFallbackAfter),
		netupdate.WithSeed(seed),
		netupdate.WithObserver(cfg.Observer),
		netupdate.WithLogger(cfg.Logger),
	)
	res, err := runner.Run(ctx, dial, dev)
	rep.Attempts = res.Attempts
	rep.FellBack = res.FellBack
	for _, fc := range streams {
		rep.BytesOnWire += fc.Transferred()
	}
	if err != nil {
		rep.Err = err.Error()
		return rep, nil
	}
	// Disarm the fault injection so verification reads the flash cleanly.
	store.FailEveryOps(0)
	store.WithRandomWriteFailures(0, 0)
	got := dev.Image()
	rep.Converged = dev.ImageLen() == targetLen && crc32.ChecksumIEEE(got) == targetCRC
	if !rep.Converged {
		rep.Err = fmt.Sprintf("image mismatch: len=%d crc=%08x want len=%d crc=%08x",
			len(got), crc32.ChecksumIEEE(got), targetLen, targetCRC)
	}
	return rep, nil
}

// strangerImage derives an image the server has never seen from the oldest
// release, deterministically from seed.
func strangerImage(base []byte, seed uint64) []byte {
	img := append([]byte(nil), base...)
	rng := rand.New(rand.NewPCG(seed, 2))
	for k := 0; k < 64 && k < len(img); k++ {
		img[rng.IntN(len(img))] ^= byte(1 + rng.IntN(255))
	}
	return img
}
