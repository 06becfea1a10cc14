package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// publish-chunked-64MiB: chunked publish, writes beside reads. A store
// built the way `ipstore serve -chunked` builds it starts from a 64 MiB
// random base, with three releases appended during set-up. Each release
// rewrites 5% of the image in 32 KiB blocks. The timed operation is one
// publish: AppendVersion (the write), then InPlaceDeltaTo(head−3) and the
// compact Encode that /delta serves (the read). No network, no device.
const (
	publishImage  = 64 << 20
	publishBack   = 3
	publishMinOps = 10
)

type publishState struct {
	gen    *blockChain
	s      *versionStore
	crcs   []uint32 // every stored version, by index
	reg    *registry
	chunks *chunkReplay
	tr     *tracer
	parent int     // span the store's stage spans go under
	compMs float64 // the last composition (recipe diff) the store timed
}

// stageSpan turns the store's stage spans into trace spans.
func (st *publishState) stageSpan(name string, start time.Time, d time.Duration) {
	switch name {
	case stageMaterialize:
		st.tr.add("store.version", st.parent, 0, start, start.Add(d))
	case stageCompose:
		st.tr.add("store.delta_between", st.parent, 0, start, start.Add(d))
		st.compMs = ms(d)
	}
}

func setupPublish(cfg config) (*publishState, error) {
	st := &publishState{gen: newBlockChain(cfg.seed, publishImage), tr: cfg.tr}
	base := st.gen.next()
	if cfg.tr != nil {
		st.reg = newRegistry()
		onStageSpan(st.reg, st.stageSpan)
		var err error
		if st.chunks, err = newChunkReplay(); err != nil {
			return nil, err
		}
		if _, _, _, err := st.chunks.add(base); err != nil {
			return nil, err
		}
	}
	st.s = newPublishStore(base, st.reg)
	st.crcs = append(st.crcs, crc32.ChecksumIEEE(base))
	for k := 0; k < publishBack; k++ {
		v := st.gen.next()
		if _, err := appendVersion(st.s, v); err != nil {
			return nil, err
		}
		st.crcs = append(st.crcs, crc32.ChecksumIEEE(v))
		if st.chunks != nil {
			if _, _, _, err := st.chunks.add(v); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func runPublish(cfg config) (*outcome, error) {
	o := newOutcome()
	var st *publishState
	for rep := 0; rep < cfg.setupReps; rep++ {
		st = nil
		settle()
		start := time.Now()
		var err error
		if st, err = setupPublish(cfg); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	tr := cfg.tr
	var (
		buf                                   []byte
		busy                                  time.Duration
		appendMs, readMs, ingest, recipe, own []float64
		builds                                []buildStats
	)
	for k := 0; k < max(publishMinOps, cfg.seconds); k++ {
		v := st.gen.next()
		want := crc32.ChecksumIEEE(v)
		settle() // heap settled before each publish: peak RSS repeats
		op := tr.open("publish", 0, k+1)
		t0 := time.Now()
		head, err := appendVersion(st.s, v)
		t1 := time.Now()
		o.attempted++
		if err != nil {
			o.fail("append: %v", err)
			break
		}
		st.crcs = append(st.crcs, want)
		from := head - publishBack
		read := tr.open("store.delta_read", op, k+1)
		st.parent = read
		ip, err := inPlaceDeltaTo(st.s, from)
		t2 := time.Now()
		var enc []byte
		if err == nil {
			enc, err = encodeCompact(ip)
		}
		t3 := time.Now()
		tr.close(read)
		tr.close(op)
		if err != nil {
			o.fail("read from version %d: %v", from, err)
			continue
		}
		src, err := storeVersion(st.s, from)
		if err == nil && crc32.ChecksumIEEE(src) != st.crcs[from] {
			err = fmt.Errorf("store version %d does not match the generated release", from)
		}
		var written int64
		if err == nil {
			written, buf, err = verifyServed(enc, src, want, buf)
		}
		if err != nil {
			o.fail("publish %d: %v", head, err)
			continue
		}
		o.ops = append(o.ops, ms(t3.Sub(t0)))
		busy += t3.Sub(t0)
		o.wireBytes += int64(len(enc))
		o.imageBytes += int64(len(v))
		o.flashWritten += written

		if tr == nil {
			continue
		}
		tr.add("store.append", op, k+1, t0, t1)
		tr.add("codec.encode", read, k+1, t2, t3)
		appendMs = append(appendMs, ms(t1.Sub(t0)))
		readMs = append(readMs, ms(t3.Sub(t1)))
		s0, s1, s2, err := st.chunks.add(v)
		if err != nil {
			return nil, err
		}
		tr.add("chunk.ingest", op, k+1, s0, s1)
		tr.add("diff.recipe", op, k+1, s1, s2)
		ingest = append(ingest, ms(s1.Sub(s0)))
		recipe = append(recipe, ms(s2.Sub(s1)))
		own = append(own, ms(t1.Sub(t0))-ms(s2.Sub(s0)))
		raw, err := storeDeltaBetween(st.s, from, head)
		if err != nil {
			return nil, err
		}
		r, err := replayBuild(raw, src)
		if err != nil {
			return nil, err
		}
		tr.add("inplace.convert", read, k+1, r.start, r.converted)
		if !bytes.Equal(r.enc, enc) {
			o.note(errors.New("replayed convert+encode differs from the served delta"))
		}
		builds = append(builds, buildStats{
			diffMs:         st.compMs,
			convertMs:      ms(r.converted.Sub(r.start)),
			encodeMs:       ms(t3.Sub(t2)),
			versionLen:     int64(len(v)),
			cycles:         r.cycles,
			convertedBytes: r.convertedBytes,
			lossBytes:      int64(len(enc)) - r.orderedBytes,
		})
	}
	o.peakRSS = peakRSSMB()
	o.work, o.workSeconds = len(o.ops), busy.Seconds()

	if tr != nil {
		buildLayers(o.layers, builds, len(builds))
		o.layers["diff.calls_per_source"] = float64(len(tr.ms("store.delta_between"))) / float64(len(builds))
		o.layers["store.append_ms"] = median(appendMs)
		o.layers["store.delta_read_ms"] = median(readMs)
		o.layers["chunk.ingest_ms"] = median(ingest)
		o.layers["diff.recipe_ms"] = median(recipe)
		o.layers["store.append_self_ms"] = median(own)
		o.layers["store.version_ms"] = median(tr.ms("store.version"))
		o.layers["store.delta_between_ms"] = median(tr.ms("store.delta_between"))
		hits, misses := counterValue(st.reg, dedupHits), counterValue(st.reg, dedupMisses)
		o.layers["chunk.dedup_hit_pct"] = 100 * float64(hits) / float64(hits+misses)
		o.layers["chunk.resident_MB"] = float64(chunkResidentBytes(st.s)) / 1e6
	}
	want := st.crcs[:2]
	st = nil
	settle()
	o.note(checkDeterminism(newBlockChain(cfg.seed, publishImage), want))
	return o, nil
}
