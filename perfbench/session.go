package main

import (
	"context"
	"errors"
	"hash/crc32"
	"sync"
	"time"
)

// release is one generated image and its CRC.
type release struct {
	img []byte
	crc uint32
}

func newRelease(img []byte) release { return release{img: img, crc: crc32.ChecksumIEEE(img)} }

func images(rs []release) [][]byte {
	out := make([][]byte, len(rs))
	for k, r := range rs {
		out[k] = r.img
	}
	return out
}

func crcs(rs []release) []uint32 {
	out := make([]uint32, len(rs))
	for k, r := range rs {
		out[k] = r.crc
	}
	return out
}

// sessionRecord is one device update as the benchmark saw it.
type sessionRecord struct {
	src        int // index of the source release in the served history
	start, end time.Time
	imageLen   int64 // target image bytes
	deltaBytes int64
	bytesRead  int64
	written    int64
	writeOps   int64
	nvWrites   int64
	cached     bool // the source's delta was built before the session began
	applyMs    float64
	crcMs      float64 // one full-image CRC pass, from the device replay
	err        error
}

func (s sessionRecord) ms() float64 { return ms(s.end.Sub(s.start)) }

// loadDevice installs src on fl and returns a device over it.
func loadDevice(fl *flash, src release) *updDevice {
	fl.load(src.img)
	return newDevice(fl, len(src.img))
}

// runSession updates dev over cc and checks that its flash then holds
// target.
func runSession(ctx context.Context, cc *clientConn, dev *updDevice, fl *flash, src int, target release) sessionRecord {
	rec := sessionRecord{src: src, imageLen: int64(len(target.img)), start: time.Now()}
	rec.deltaBytes, rec.err = update(ctx, cc, dev)
	rec.end = time.Now()
	rec.bytesRead, rec.written, rec.writeOps = fl.bytesRead, fl.written, fl.writeOps
	rec.nvWrites = deviceNVWrites(dev)
	if rec.err == nil {
		if n := deviceImageLen(dev); n != rec.imageLen || crc32.ChecksumIEEE(fl.data[:n]) != target.crc {
			rec.err = errors.New("device image does not match the target release")
		}
	}
	return rec
}

// addSession counts one session in o.
func (o *outcome) addSession(rec sessionRecord) {
	o.attempted++
	if rec.err != nil {
		o.fail("session from release %d: %v", rec.src, rec.err)
		return
	}
	o.imageBytes += rec.imageLen
	o.wireBytes += rec.deltaBytes
	o.flashWritten += rec.written
}

// markCached flags the sessions whose delta was already built when they
// started. A source's delta is built for its first session, so a session
// counts as cold until some session from the same source has finished.
func markCached(recs []sessionRecord) {
	firstEnd := map[int]time.Time{}
	for _, r := range recs {
		if e, ok := firstEnd[r.src]; !ok || r.end.Before(e) {
			firstEnd[r.src] = r.end
		}
	}
	for i := range recs {
		recs[i].cached = !recs[i].start.Before(firstEnd[recs[i].src])
	}
}

// replayDevice repeats a session's device side on fl: one full-image CRC
// pass and the streamed in-place apply of enc, each timed and traced as a
// child of the session span.
func replayDevice(tr *tracer, parent, session int, fl *flash, src release, enc []byte, rec *sessionRecord) error {
	dev := loadDevice(fl, src)
	t0 := time.Now()
	if _, err := deviceCRC(dev); err != nil {
		return err
	}
	t1 := time.Now()
	if err := deviceApply(dev, enc); err != nil {
		return err
	}
	t2 := time.Now()
	tr.add("device.crc", parent, session, t0, t1)
	tr.add("device.apply", parent, session, t1, t2)
	rec.crcMs, rec.applyMs = ms(t1.Sub(t0)), ms(t2.Sub(t1))
	return nil
}

// buildStats is one server-side delta build: the diff the server ran, and
// the convert and encode replayed on its inputs.
type buildStats struct {
	diffMs, convertMs, encodeMs float64
	versionLen                  int64
	cycles                      int
	convertedBytes              int64
	lossBytes                   int64 // in-place compact delta minus the ordered raw diff
}

// buildLog collects the server's diffs through the algorithm hook, then
// replays their convert and encode and keeps the encoded delta per source
// for the device replays.
type buildLog struct {
	tr      *tracer
	parent  int
	history []release
	mu      sync.Mutex
	raws    []rawBuild
	enc     map[int][]byte
	stats   []buildStats
}

type rawBuild struct {
	src        int
	raw        *deltaFile
	span       int
	start, end time.Time
}

func newBuildLog(tr *tracer) *buildLog { return &buildLog{tr: tr} }

// reset points the log at a new served history; spans go under parent.
func (b *buildLog) reset(history []release, parent int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.history, b.parent, b.enc = history, parent, map[int][]byte{}
}

func (b *buildLog) hook(ref, _ []byte, d *deltaFile, start, end time.Time) {
	src := -1
	for k, r := range b.history {
		if len(ref) > 0 && len(r.img) > 0 && &r.img[0] == &ref[0] {
			src = k
		}
	}
	id := b.tr.add("diff.build", b.parent, 0, start, end)
	b.mu.Lock()
	b.raws = append(b.raws, rawBuild{src: src, raw: d, span: id, start: start, end: end})
	b.mu.Unlock()
}

// replay converts and encodes every diff logged since the last call.
func (b *buildLog) replay() error {
	b.mu.Lock()
	raws := b.raws
	b.raws = nil
	b.mu.Unlock()
	for _, rb := range raws {
		if rb.src < 0 {
			return errors.New("server diffed a reference outside the served history")
		}
		r, err := replayBuild(rb.raw, b.history[rb.src].img)
		if err != nil {
			return err
		}
		b.tr.add("inplace.convert", rb.span, 0, r.start, r.converted)
		b.tr.add("codec.encode", rb.span, 0, r.converted, r.encoded)
		b.enc[rb.src] = r.enc
		b.stats = append(b.stats, buildStats{
			diffMs:         ms(rb.end.Sub(rb.start)),
			convertMs:      ms(r.converted.Sub(r.start)),
			encodeMs:       ms(r.encoded.Sub(r.converted)),
			versionLen:     rb.raw.VersionLen,
			cycles:         r.cycles,
			convertedBytes: r.convertedBytes,
			lossBytes:      int64(len(r.enc)) - r.orderedBytes,
		})
	}
	return nil
}

// traceSessions records a span per session under parent, replays each
// session's device side, and checks that the replayed delta is the size
// the server sent.
func traceSessions(o *outcome, tr *tracer, parent int, recs []sessionRecord, history []release, b *buildLog, fl *flash) error {
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		id := tr.add("netupdate.update", parent, i+1, r.start, r.end)
		enc, ok := b.enc[r.src]
		if !ok {
			o.note(errors.New("no replayed delta for a served source"))
			continue
		}
		if int64(len(enc)) != r.deltaBytes {
			o.note(errors.New("replayed delta differs in size from the one the server sent"))
		}
		if err := replayDevice(tr, id, i+1, fl, history[r.src], enc, r); err != nil {
			return err
		}
	}
	return nil
}

// sessionLayers derives the netupdate and device metrics. A session makes
// three full-image CRC passes (hello, apply's source check, confirm), so
// device time is the replayed apply plus three replayed passes, and
// transport is the rest of the session.
func sessionLayers(layers map[string]float64, recs []sessionRecord) {
	var all, cached, cold, transport, apply, crc []float64
	var image, read, writeOps, nv float64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		d := r.ms()
		all = append(all, d)
		if r.cached {
			cached = append(cached, d)
		} else {
			cold = append(cold, d)
		}
		apply = append(apply, r.applyMs)
		crc = append(crc, r.crcMs)
		transport = append(transport, d-r.applyMs-3*r.crcMs)
		image += float64(r.imageLen)
		read += float64(r.bytesRead)
		writeOps += float64(r.writeOps)
		nv += float64(r.nvWrites)
	}
	if len(all) == 0 {
		return
	}
	n := float64(len(all))
	layers["netupdate.transport_ms"] = median(transport)
	layers["netupdate.cached_session_p90_ms"] = quantile(cached, 0.9)
	layers["netupdate.cold_session_p50_ms"] = median(cold)
	layers["netupdate.session_p99_ms"] = quantile(all, 0.99)
	layers["device.apply_ms"] = median(apply)
	layers["device.crc_ms"] = 3 * median(crc)
	layers["device.flash_read_ratio"] = read / image
	layers["device.flash_write_ops"] = writeOps / n
	layers["device.nv_writes"] = nv / n
}

// buildLayers derives the diff, inplace and codec metrics from the builds
// behind the served sources.
func buildLayers(layers map[string]float64, builds []buildStats, sources int) {
	if len(builds) == 0 {
		return
	}
	var diffs, converts, encodes []float64
	var ver, loss, cycles, conv float64
	for _, b := range builds {
		diffs = append(diffs, b.diffMs)
		converts = append(converts, b.convertMs)
		encodes = append(encodes, b.encodeMs)
		ver += float64(b.versionLen)
		loss += float64(b.lossBytes)
		cycles += float64(b.cycles)
		conv += float64(b.convertedBytes)
	}
	n := float64(len(builds))
	layers["diff.build_ms"] = median(diffs)
	layers["diff.MBps"] = ver / 1e6 / (sum(diffs) / 1e3)
	layers["diff.calls_per_source"] = n / float64(sources)
	layers["inplace.convert_ms"] = median(converts)
	layers["codec.encode_ms"] = median(encodes)
	layers["inplace.cycles_broken"] = cycles / n
	layers["inplace.converted_KiB"] = conv / n / 1024
	layers["inplace.loss_pct"] = 100 * loss / ver
	layers["inplace.convert_to_diff_pct"] = 100 * sum(converts) / sum(diffs)
}
