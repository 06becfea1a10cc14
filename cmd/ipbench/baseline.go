package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// The benchmark-baseline mode (-bench-baseline) measures the conversion
// pipeline's steady-state hot paths with testing.Benchmark, emits a
// machine-readable JSON document (-baseline-out, BENCH_convert.json by
// convention), and then checks the document against the rule table in
// rules.go. Committing the file alongside a perf-sensitive change gives
// reviewers a before/after record of ns/op, allocs/op and delta size
// without re-running anything; the rules make the run itself the gate.

// baselineResult is one benchmark's measurement.
type baselineResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	// DeltaBytes and AddPct describe the delta a diff row builds: its
	// size in the ordered format, and its add bytes as a percentage of
	// the version. Only diff rows carry them.
	DeltaBytes int64   `json:"delta_bytes,omitempty"`
	AddPct     float64 `json:"add_pct,omitempty"`
}

// baselineStage summarizes one observed pipeline stage from the metrics
// registry attached to the instrumented runs.
type baselineStage struct {
	Name       string  `json:"name"`
	Count      int64   `json:"count"`
	MeanNanos  float64 `json:"mean_nanos"`
	TotalNanos int64   `json:"total_nanos"`
}

// baselineHistogram summarizes one registry histogram that is not a stage
// timer (its name does not end in _nanos), in the histogram's own unit.
type baselineHistogram struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Sum   int64   `json:"sum"`
}

// baselineDoc is the emitted document.
type baselineDoc struct {
	Environment struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		InputBytes int    `json:"input_bytes"`
		Seed       int64  `json:"seed"`
	} `json:"environment"`
	Results []baselineResult `json:"results"`
	// Metrics carries selected counters from an instrumented convert run
	// (cycle-break counts per policy, converted copies/bytes), proving the
	// observability layer sees the same structure the stats report.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Stages carries per-stage timing aggregates from the same run.
	Stages []baselineStage `json:"stages,omitempty"`
	// Histograms carries the run's other histograms (sizes, counts).
	Histograms []baselineHistogram `json:"histograms,omitempty"`
}

// makeChain builds depth related version images for the store benchmarks:
// each release splices fresh content into a copy of its predecessor, so the
// deltas stay small and realistic.
func makeChain(size, depth int, seed int64) [][]byte {
	p := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: size, ChangeRate: 0.05, Seed: seed})
	chain := [][]byte{p.Ref}
	cur := p.Ref
	for k := 1; k < depth; k++ {
		fresh := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: size, ChangeRate: 0.05, Seed: seed + int64(k)})
		v := append([]byte(nil), cur...)
		splice := len(v) / 6
		off := (k * 131) % (len(v) - splice)
		copy(v[off:off+splice], fresh.Version[:splice])
		chain = append(chain, v)
		cur = v
	}
	return chain
}

// blockyChurn returns a copy of base with roughly rate of its bytes
// overwritten in contiguous 32 KiB blocks at scattered offsets — the
// localized-edit shape chunk dedup exploits. (Scattered single-byte
// edits at the same rate would touch nearly every chunk and defeat any
// chunk-granular matcher; real version churn is blocky.)
func blockyChurn(base []byte, rate float64, seed int64) []byte {
	out := append([]byte(nil), base...)
	rng := rand.New(rand.NewSource(seed))
	const block = 32 << 10
	if len(out) <= block {
		rng.Read(out)
		return out
	}
	n := int(float64(len(base)) * rate / block)
	if n < 1 {
		n = 1
	}
	for k := 0; k < n; k++ {
		off := rng.Intn(len(out) - block)
		rng.Read(out[off : off+block])
	}
	return out
}

// measureReingest adds the rows that ingest newImg into a store that
// holds oldImg, then release it: repeat cuts and hashes every chunk, like
// lets oldImg's recipe predict the unchanged ones.
func measureReingest(doc *baselineDoc, ck *chunk.Chunker, oldImg, newImg []byte, label string) {
	s := chunk.NewStore()
	like := s.IngestAll(ck, oldImg)
	doc.measure("chunk/ingest/repeat/"+label, int64(len(newImg)), func() error {
		s.ReleaseRecipe(s.IngestAll(ck, newImg))
		return nil
	})
	doc.measure("chunk/ingest/like/"+label, int64(len(newImg)), func() error {
		s.ReleaseRecipe(s.IngestLike(ck, newImg, like))
		return nil
	})
}

// measureCodec adds the wire-format rows: compact encode and streaming
// decode of the in-place delta between record releases four apart, whose
// moved record runs give the converter hundreds of cycles — the delta a
// rollout server encodes and a device decodes, command by command.
func measureCodec(doc *baselineDoc, size int, seed int64) error {
	chain := corpus.RecordChain(seed, size, 5)
	raw, err := diff.NewLinear().Diff(chain[0], chain[4])
	if err != nil {
		return fmt.Errorf("bench-baseline: records diff: %w", err)
	}
	d, _, err := inplace.Convert(raw, chain[0])
	if err != nil {
		return fmt.Errorf("bench-baseline: records convert: %w", err)
	}
	var enc bytes.Buffer
	if _, err := codec.Encode(&enc, d, codec.FormatCompact); err != nil {
		return fmt.Errorf("bench-baseline: records encode: %w", err)
	}
	wire := enc.Bytes()
	vbytes := int64(len(chain[4]))
	var sink bytes.Buffer
	doc.measure("codec/encode/compact", vbytes, func() error {
		sink.Reset()
		_, err := codec.Encode(&sink, d, codec.FormatCompact)
		return err
	})
	r := bytes.NewReader(wire)
	work := make([]byte, 4096)
	doc.measure("codec/decode/stream", vbytes, func() error {
		r.Reset(wire)
		dec, err := codec.NewDecoder(r)
		if err != nil {
			return err
		}
		for {
			_, payload, err := dec.NextStreaming()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if payload != nil {
				if _, err := io.CopyBuffer(io.Discard, payload, work); err != nil {
					return err
				}
			}
		}
	})
	return nil
}

// measureChunkedInPlace adds the chunked store's read-path row: a cold
// InPlaceDeltaTo from three releases back on a cache-less chunked store
// of size-byte blockyChurn releases — the endpoint recipe diff, then a
// conversion that reads the old version by range. The delta must rebuild
// the head in place before it is timed.
func measureChunkedInPlace(doc *baselineDoc, size int, seed int64) error {
	img := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(img)
	s := store.New(img, store.WithChunking(nil))
	for k := 1; k <= 4; k++ {
		img = blockyChurn(img, 0.05, seed+int64(k))
		if _, err := s.AppendVersion(img); err != nil {
			return fmt.Errorf("bench-baseline: chunked store: %w", err)
		}
	}
	name := "store/inplace/chunked/" + sizeLabel(size)
	i := s.NumVersions() - 4
	d, _, err := s.InPlaceDeltaTo(i, graph.LocallyMinimum{})
	if err != nil {
		return fmt.Errorf("bench-baseline: %s: %w", name, err)
	}
	ref, err := s.Version(i)
	if err != nil {
		return fmt.Errorf("bench-baseline: %s: %w", name, err)
	}
	buf := make([]byte, d.InPlaceBufLen())
	copy(buf, ref)
	if err := d.ApplyInPlace(buf); err != nil {
		return fmt.Errorf("bench-baseline: %s: apply: %w", name, err)
	}
	if !bytes.Equal(buf[:d.VersionLen], img) {
		return fmt.Errorf("bench-baseline: %s: delta does not rebuild the head", name)
	}
	doc.measure(name, int64(size), func() error {
		_, _, err := s.InPlaceDeltaTo(i, graph.LocallyMinimum{})
		return err
	})
	return nil
}

// sizeLabel renders a byte count as a row-name suffix.
func sizeLabel(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}

// measure times op, one iteration of the row, under testing.Benchmark
// and records the result. bytes is the per-iteration payload for MB/s (0
// to omit). A row an allocation rule bounds takes its allocs/op from
// allocsPerOp instead.
func (doc *baselineDoc) measure(name string, bytes int64, op func() error) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
	res := baselineResult{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if allocsRuled(name) {
		res.AllocsPerOp = allocsPerOp(op)
	}
	if bytes > 0 && r.T > 0 {
		res.MBPerSec = float64(bytes) * float64(r.N) / r.T.Seconds() / 1e6
	}
	doc.Results = append(doc.Results, res)
}

// allocsPerOp counts op's allocations the way the package allocation
// gates do: a warmed testing.AllocsPerRun pass over four calls with the
// collector held off. A collection during a timed run empties the pools the steady-state
// paths draw on, and the regrow, divided over a small b.N, can read as
// one more allocation per op than the path makes. An op that fails here
// has already failed its timed run.
func allocsPerOp(op func() error) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return int64(testing.AllocsPerRun(4, func() { _ = op() }))
}

// measureDiff records a diff row. It first builds one delta with diffFn
// and requires it to rebuild version from ref exactly, so a fast wrong
// answer never reaches the document, and records the delta's shape; then
// it times diffFn.
func (doc *baselineDoc) measureDiff(name string, ref, version []byte, diffFn func() (*delta.Delta, error)) error {
	d, err := diffFn()
	if err != nil {
		return fmt.Errorf("bench-baseline: %s: %w", name, err)
	}
	got, err := d.Apply(ref)
	if err != nil {
		return fmt.Errorf("bench-baseline: %s: apply: %w", name, err)
	}
	if !bytes.Equal(got, version) {
		return fmt.Errorf("bench-baseline: %s: delta does not rebuild the version image", name)
	}
	size, err := codec.EncodedSize(d, codec.FormatOrdered)
	if err != nil {
		return fmt.Errorf("bench-baseline: %s: %w", name, err)
	}
	addPct := 100 * float64(d.AddedBytes()) / float64(len(version))
	doc.measure(name, int64(len(version)), func() error {
		_, err := diffFn()
		return err
	})
	r := &doc.Results[len(doc.Results)-1]
	r.DeltaBytes, r.AddPct = size, addPct
	return nil
}

// addRegistry folds the registry's counters and histograms into the
// document: stage timers (named *_nanos) into Stages, the rest into
// Histograms with unit-neutral fields.
func (doc *baselineDoc) addRegistry(reg *obs.Registry) {
	snap := reg.Snapshot()
	if len(snap.Counters) > 0 {
		doc.Metrics = snap.Counters
	}
	for name, h := range snap.Histograms {
		var mean float64
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		if base, _, _ := strings.Cut(name, "{"); strings.HasSuffix(base, "_nanos") {
			doc.Stages = append(doc.Stages, baselineStage{Name: name, Count: h.Count, MeanNanos: mean, TotalNanos: h.Sum})
		} else {
			doc.Histograms = append(doc.Histograms, baselineHistogram{Name: name, Count: h.Count, Mean: mean, Sum: h.Sum})
		}
	}
	sort.Slice(doc.Stages, func(i, j int) bool { return doc.Stages[i].Name < doc.Stages[j].Name })
	sort.Slice(doc.Histograms, func(i, j int) bool { return doc.Histograms[i].Name < doc.Histograms[j].Name })
}

// runBaseline measures the pipeline, writes the JSON document to outPath,
// renders a summary table to out, and returns an error naming every
// baseline rule the document breaks.
func runBaseline(out io.Writer, outPath string, quick bool, seed int64) error {
	// Open the output first: an unwritable path fails before minutes of
	// measuring, not after.
	f, err := os.Create(outPath)
	if err != nil {
		return fmt.Errorf("bench-baseline: %w", err)
	}
	defer f.Close()
	size := 256 << 10
	if quick {
		size = 64 << 10
	}
	p := corpus.Generate(corpus.PairSpec{
		Profile:    corpus.Binary,
		Size:       size,
		ChangeRate: 0.08,
		Seed:       seed,
	})
	vbytes := int64(len(p.Version))

	l := diff.NewLinear()
	d, err := l.Diff(p.Ref, p.Version)
	if err != nil {
		return fmt.Errorf("bench-baseline: diff: %w", err)
	}

	doc := &baselineDoc{}
	doc.Environment.GoVersion = runtime.Version()
	doc.Environment.GOOS = runtime.GOOS
	doc.Environment.GOARCH = runtime.GOARCH
	doc.Environment.NumCPU = runtime.NumCPU()
	doc.Environment.GOMAXPROCS = runtime.GOMAXPROCS(0)
	doc.Environment.InputBytes = size
	doc.Environment.Seed = seed

	doc.measure("convert/one-shot", vbytes, func() error {
		_, _, err := inplace.Convert(d, p.Ref)
		return err
	})
	// The reuse benchmark runs with an observer attached: stage timings and
	// structural counters land in the emitted document, and the allocs/op
	// column doubles as proof that observation stays allocation-free.
	reg := obs.NewRegistry()
	cv := inplace.NewConverter(inplace.WithObserver(reg))
	doc.measure("convert/reuse", vbytes, func() error {
		_, _, err := cv.Convert(d, p.Ref)
		return err
	})
	doc.measure("crwi/build", vbytes, func() error {
		_, _, err := cv.BuildCRWI(d)
		return err
	})
	if err := measureCodec(doc, 4*size, seed); err != nil {
		return err
	}
	if err := doc.measureDiff("diff/one-shot", p.Ref, p.Version, func() (*delta.Delta, error) {
		return l.Diff(p.Ref, p.Version)
	}); err != nil {
		return err
	}

	// Chunked dedup tier: content-defined split, ingest and materialize
	// throughput, then the recipe-diff fast path against the full-image
	// linear differ on the same 5%-blocky-churn input at growing sizes.
	// Recipes are pre-ingested — the recipe rows measure diffing versions
	// the store already holds, the serving steady state; ingest cost is
	// its own row. The chunk store and recipe differ share the metrics
	// registry, so the dedup hit/miss/bytes-saved counters land in the
	// document's metrics.
	chunkSizes := []int{1 << 20, 16 << 20, 256 << 20}
	if quick {
		chunkSizes = chunkSizes[:2]
	}
	ck, err := chunk.NewChunker(chunk.Params{})
	if err != nil {
		return fmt.Errorf("bench-baseline: %w", err)
	}
	rd := diff.NewRecipeDiffer(diff.WithRecipeObserver(reg))
	for _, csz := range chunkSizes {
		oldImg := make([]byte, csz)
		rand.New(rand.NewSource(seed)).Read(oldImg)
		newImg := blockyChurn(oldImg, 0.05, seed+1)
		label := sizeLabel(csz)

		doc.measure("chunk/split/"+label, int64(csz), func() error {
			ck.Split(oldImg, func([]byte) {})
			return nil
		})
		doc.measure("chunk/ingest/"+label, int64(csz), func() error {
			chunk.NewStore().IngestAll(ck, oldImg)
			return nil
		})
		measureReingest(doc, ck, oldImg, newImg, label)

		cstore := chunk.NewStore(chunk.WithObserver(reg))
		ro := cstore.IngestAll(ck, oldImg)
		rn := cstore.IngestAll(ck, newImg)
		doc.measure("chunk/materialize/"+label, int64(csz), func() error {
			_, err := chunk.Materialize(nil, ro, cstore)
			return err
		})
		if err := doc.measureDiff("recipe/diff/"+label, oldImg, newImg, func() (*delta.Delta, error) {
			return rd.DiffRecipes(ro, rn, cstore)
		}); err != nil {
			return err
		}
		if err := doc.measureDiff("diff/full/"+label, oldImg, newImg, func() (*delta.Delta, error) {
			return l.Diff(oldImg, newImg)
		}); err != nil {
			return err
		}
	}

	if err := measureChunkedInPlace(doc, 16<<20, seed); err != nil {
		return err
	}

	// Store serving path: materializing the head of a delta chain cold
	// (full replay per request) versus through the materialization cache
	// (steady-state hits after one replay).
	chainDepth := 32
	if quick {
		chainDepth = 8
	}
	chain := makeChain(size/4, chainDepth, seed)
	head := len(chain) - 1
	headBytes := int64(len(chain[head]))
	cold := store.New(chain[0])
	cached := store.New(chain[0], store.WithCache(8))
	for _, v := range chain[1:] {
		if _, err := cold.AppendVersion(v); err != nil {
			return fmt.Errorf("bench-baseline: chain: %w", err)
		}
		if _, err := cached.AppendVersion(v); err != nil {
			return fmt.Errorf("bench-baseline: chain: %w", err)
		}
	}
	doc.measure(fmt.Sprintf("store/cold/%d", chainDepth), headBytes, func() error {
		_, err := cold.Version(head)
		return err
	})
	if _, err := cached.Version(head); err != nil {
		return fmt.Errorf("bench-baseline: warm cache: %w", err)
	}
	doc.measure(fmt.Sprintf("store/cached/%d", chainDepth), headBytes, func() error {
		_, err := cached.Version(head)
		return err
	})

	// Fold the shared registry in once, at the end: the convert stages and
	// the chunk tier's dedup counters all report through reg.
	doc.addRegistry(reg)

	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("bench-baseline: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench-baseline: %w", err)
	}

	fmt.Fprintf(out, "benchmark baseline (%d-byte input, seed %d) -> %s\n", size, seed, outPath)
	fmt.Fprintf(out, "environment: %d CPU, GOMAXPROCS %d, %s %s/%s — parallel rows reflect this parallelism\n\n",
		doc.Environment.NumCPU, doc.Environment.GOMAXPROCS,
		doc.Environment.GoVersion, doc.Environment.GOOS, doc.Environment.GOARCH)
	fmt.Fprintf(out, "%-28s %12s %14s %12s %10s %8s\n", "benchmark", "iters", "ns/op", "allocs/op", "MB/s", "add %")
	for _, r := range doc.Results {
		fmt.Fprintf(out, "%-28s %12d %14.0f %12d %10.1f", r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.MBPerSec)
		if r.DeltaBytes > 0 {
			fmt.Fprintf(out, " %8.2f", r.AddPct)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintln(out)
	return checkRules(out, doc, baselineRules, raceEnabled())
}
