package main

// This file is the benchmark's only contact with the program: every call
// into an ipdelta package goes through a function here, so an API move
// (a Source over store.Store, deleting Prewarm or the v1 surface) changes
// this file and nothing else.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net"
	"time"

	"ipdelta/internal/chunk"
	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/netupdate"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// Program types the workloads hold but never reach into.
type (
	clientConn   = netupdate.ClientConn
	updDevice    = device.Device
	deltaFile    = delta.Delta
	versionStore = store.Store
	registry     = obs.Registry
)

// Observer names the traced publish run reads back.
const (
	stageMaterialize = "ipdelta_store_stage_materialize_nanos"
	stageCompose     = "ipdelta_store_stage_compose_nanos"
	dedupHits        = "ipdelta_chunk_dedup_hits_total"
	dedupMisses      = "ipdelta_chunk_dedup_misses_total"
)

// updateServer is an in-process netupdate server on a loopback listener.
type updateServer struct {
	l    net.Listener
	done chan error
}

// startServer serves history (oldest first; the last entry is the target)
// with the auto differ, the default of `updated`. Deltas are built on first
// request; nothing is prewarmed. A non-nil hook sees every diff the server
// runs.
func startServer(history [][]byte, hook diffHook) (*updateServer, error) {
	var algo diff.Algorithm = diff.NewAuto()
	if hook != nil {
		algo = &hookedAlgorithm{inner: algo, hook: hook}
	}
	srv, err := netupdate.NewServer(history, netupdate.WithAlgorithm(algo))
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	us := &updateServer{l: l, done: make(chan error, 1)}
	go func() { us.done <- srv.Serve(l) }()
	return us, nil
}

func (us *updateServer) addr() string { return us.l.Addr().String() }

// stop closes the listener and waits for Serve, which returns once every
// connection it accepted has ended; close the client connections first.
func (us *updateServer) stop() {
	us.l.Close()
	<-us.done
}

// diffHook observes one diff the server runs: the pair, the raw delta and
// when the call ran.
type diffHook func(ref, version []byte, d *deltaFile, start, end time.Time)

// hookedAlgorithm is the diff.Algorithm handed to the server in traced
// runs: the server's own differ, with each call reported to a hook.
type hookedAlgorithm struct {
	inner diff.Algorithm
	hook  diffHook
}

func (h *hookedAlgorithm) Name() string { return h.inner.Name() }

func (h *hookedAlgorithm) Diff(ref, version []byte) (*delta.Delta, error) {
	start := time.Now()
	d, err := h.inner.Diff(ref, version)
	if err == nil {
		h.hook(ref, version, d, start, time.Now())
	}
	return d, err
}

// dial opens one protocol-v2 connection to addr.
func dial(ctx context.Context, addr string) (*clientConn, error) {
	return netupdate.Dial(ctx, addr)
}

func closeConn(cc *clientConn) { cc.Close() }

// update runs one update session for dev on a fresh stream of cc and
// returns the delta payload size. A full-image fallback counts as a
// failure: nothing in these workloads should need one.
func update(ctx context.Context, cc *clientConn, dev *updDevice) (int64, error) {
	res, err := cc.Update(ctx, dev)
	if err == nil && (res.FullImage || res.UpToDate) {
		err = fmt.Errorf("session ended without a delta (full=%v up-to-date=%v)", res.FullImage, res.UpToDate)
	}
	return res.DeltaBytes, err
}

// flash is the device storage the benchmark supplies: a device.Store over
// a byte array that counts its traffic and is reloaded with a source image
// outside the timed call.
type flash struct {
	data               []byte
	readOps, writeOps  int64
	bytesRead, written int64
}

func newFlash(capacity int) *flash { return &flash{data: make([]byte, capacity)} }

// load installs img at offset 0 and clears the counters.
func (f *flash) load(img []byte) {
	copy(f.data, img)
	f.readOps, f.writeOps, f.bytesRead, f.written = 0, 0, 0, 0
}

func (f *flash) ReadAt(p []byte, off int64) error {
	if off < 0 || off > int64(len(f.data)-len(p)) {
		return fmt.Errorf("flash: read of %d bytes at %d outside %d", len(p), off, len(f.data))
	}
	copy(p, f.data[off:])
	f.readOps++
	f.bytesRead += int64(len(p))
	return nil
}

func (f *flash) WriteAt(p []byte, off int64) error {
	if off < 0 || off > int64(len(f.data)-len(p)) {
		return fmt.Errorf("flash: write of %d bytes at %d outside %d", len(p), off, len(f.data))
	}
	copy(f.data[off:], p)
	f.writeOps++
	f.written += int64(len(p))
	return nil
}

func (f *flash) Capacity() int64 { return int64(len(f.data)) }

// newDevice returns a device whose flash holds an image of imageLen bytes.
func newDevice(f *flash, imageLen int) *updDevice {
	return device.New(f, int64(imageLen), device.DefaultWorkBufSize)
}

func deviceApply(dev *updDevice, enc []byte) error { return dev.Apply(bytes.NewReader(enc)) }
func deviceCRC(dev *updDevice) (uint32, error)     { return dev.ImageCRC() }
func deviceNVWrites(dev *updDevice) int64          { return dev.NVWrites() }
func deviceImageLen(dev *updDevice) int64          { return dev.ImageLen() }

// replayed is one convert + encode repeated on the inputs the program used.
type replayed struct {
	enc                       []byte
	start, converted, encoded time.Time
	cycles                    int
	convertedBytes            int64
	orderedBytes              int64 // the raw delta in the ordered format
}

// replayBuild repeats the server's convert and compact encode of raw, the
// delta it diffed from ref.
func replayBuild(raw *deltaFile, ref []byte) (replayed, error) {
	r := replayed{start: time.Now()}
	ip, st, err := inplace.Convert(raw, ref, inplace.WithPolicy(graph.LocallyMinimum{}))
	if err != nil {
		return r, fmt.Errorf("convert: %w", err)
	}
	r.converted = time.Now()
	if r.enc, err = encodeCompact(ip); err != nil {
		return r, err
	}
	r.encoded = time.Now()
	r.cycles, r.convertedBytes = st.CyclesBroken, st.ConvertedBytes
	if r.orderedBytes, err = codec.EncodedSize(raw, codec.FormatOrdered); err != nil {
		return r, fmt.Errorf("ordered size: %w", err)
	}
	return r, nil
}

// encodeCompact encodes d in the compact in-place format every surface serves.
func encodeCompact(d *deltaFile) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, d, codec.FormatCompact); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return buf.Bytes(), nil
}

// cyclesBroken diffs ref→version with the server's differ, converts the
// delta in place and returns how many cycles the conversion broke.
func cyclesBroken(ref, version []byte) (int, error) {
	raw, err := diff.NewAuto().Diff(ref, version)
	if err != nil {
		return 0, err
	}
	_, st, err := inplace.Convert(raw, ref)
	if err != nil {
		return 0, err
	}
	return st.CyclesBroken, nil
}

// newPublishStore builds a store the way `ipstore serve -chunked` does:
// auto differ, 64-entry cache, chunked recipe tier. A non-nil reg is
// attached as the store's observer.
func newPublishStore(base []byte, reg *registry) *versionStore {
	opts := []store.Option{store.WithAlgorithm(diff.NewAuto()), store.WithCache(64), store.WithChunking(nil)}
	if reg != nil {
		opts = append(opts, store.WithObserver(reg))
	}
	return store.New(base, opts...)
}

func appendVersion(s *versionStore, v []byte) (int, error) { return s.AppendVersion(v) }

// inPlaceDeltaTo is the read `ipstore serve` runs for /delta?from=N,
// before its encode.
func inPlaceDeltaTo(s *versionStore, from int) (*deltaFile, error) {
	d, _, err := s.InPlaceDeltaTo(from, graph.LocallyMinimum{})
	return d, err
}

func storeVersion(s *versionStore, i int) ([]byte, error) { return s.Version(i) }

func storeDeltaBetween(s *versionStore, i, j int) (*deltaFile, error) { return s.DeltaBetween(i, j) }

// chunkResidentBytes is the chunk store's resident set, pinned and not.
func chunkResidentBytes(s *versionStore) int64 {
	st, _ := s.ChunkStats()
	return st.PinnedBytes + st.UnpinnedBytes
}

// verifyServed checks a served delta the way a device depends on it: it
// decodes, satisfies Equation 2 (CheckInPlace), and turns src into an image
// whose CRC is want under ApplyInPlace, in buf. It returns the bytes the
// apply writes and the buffer, grown if it had to be.
func verifyServed(enc, src []byte, want uint32, buf []byte) (int64, []byte, error) {
	d, _, err := codec.Decode(bytes.NewReader(enc))
	if err != nil {
		return 0, buf, fmt.Errorf("decode: %w", err)
	}
	if err := d.CheckInPlace(); err != nil {
		return 0, buf, fmt.Errorf("served delta is not in-place safe: %w", err)
	}
	if d.RefLen != int64(len(src)) {
		return 0, buf, fmt.Errorf("served delta expects a %d-byte source, have %d", d.RefLen, len(src))
	}
	need := int(d.InPlaceBufLen())
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	copy(buf, src)
	if err := d.ApplyInPlace(buf); err != nil {
		return 0, buf, fmt.Errorf("apply in place: %w", err)
	}
	if got := crc32.ChecksumIEEE(buf[:d.VersionLen]); got != want {
		return 0, buf, fmt.Errorf("in-place apply gives crc %08x, want %08x", got, want)
	}
	var written int64
	for _, c := range d.Commands {
		written += c.Length
	}
	return written, buf, nil
}

// chunkReplay repeats the chunked append path on a private chunk store:
// IngestAll with the default chunker, then DiffRecipes against the
// previous version's recipe.
type chunkReplay struct {
	ck   *chunk.Chunker
	cs   *chunk.Store
	rd   *diff.RecipeDiffer
	prev chunk.Recipe
	has  bool
}

func newChunkReplay() (*chunkReplay, error) {
	ck, err := chunk.NewChunker(chunk.Params{})
	if err != nil {
		return nil, err
	}
	return &chunkReplay{ck: ck, cs: chunk.NewStore(), rd: diff.NewRecipeDiffer()}, nil
}

// add ingests v and diffs its recipe against the previous one, returning
// when each step began and when the diff ended.
func (c *chunkReplay) add(v []byte) (start, ingested, diffed time.Time, err error) {
	start = time.Now()
	r := c.cs.IngestAll(c.ck, v)
	ingested = time.Now()
	if c.has {
		if _, err := c.rd.DiffRecipes(c.prev, r, c.cs); err != nil {
			return start, ingested, time.Now(), fmt.Errorf("recipe diff: %w", err)
		}
	}
	diffed = time.Now()
	c.prev, c.has = r, true
	return start, ingested, diffed, nil
}

func newRegistry() *registry { return obs.NewRegistry() }

// onStageSpan forwards every stage span reg records to f.
func onStageSpan(reg *registry, f func(name string, start time.Time, d time.Duration)) {
	reg.SetSink(func(ev obs.SpanEvent) { f(ev.Name, ev.Start, ev.Duration) })
}

func counterValue(reg *registry, name string) int64 { return reg.Snapshot().Counter(name) }
