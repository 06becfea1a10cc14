package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/inplace"
	"ipdelta/internal/obs"
	"ipdelta/internal/store"
)

// The benchmark-baseline mode (-bench-baseline) measures the conversion
// pipeline's steady-state hot paths with testing.Benchmark and emits a
// machine-readable JSON document (-baseline-out, BENCH_convert.json by
// convention). Committing the file alongside a perf-sensitive change gives
// reviewers and CI a before/after record of ns/op and allocs/op without
// re-running anything.

// baselineResult is one benchmark's measurement.
type baselineResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
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

// sizeLabel renders a byte count as a row-name suffix.
func sizeLabel(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}

// measure runs fn under testing.Benchmark and records the result. bytes is
// the per-iteration payload for MB/s (0 to omit).
func (doc *baselineDoc) measure(name string, bytes int64, fn func(b *testing.B)) {
	r := testing.Benchmark(fn)
	res := baselineResult{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if bytes > 0 && r.T > 0 {
		res.MBPerSec = float64(bytes) * float64(r.N) / r.T.Seconds() / 1e6
	}
	doc.Results = append(doc.Results, res)
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

// runBaseline measures the pipeline and writes the JSON document to
// outPath, rendering a summary table to out.
func runBaseline(out io.Writer, outPath string, quick bool, seed int64) error {
	size := 256 << 10
	batchJobs := 16
	if quick {
		size = 64 << 10
		batchJobs = 4
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

	doc.measure("convert/one-shot", vbytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := inplace.Convert(d, p.Ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The reuse benchmark runs with an observer attached: stage timings and
	// structural counters land in the emitted document, and the allocs/op
	// column doubles as proof that observation stays allocation-free.
	reg := obs.NewRegistry()
	cv := inplace.NewConverter(inplace.WithObserver(reg))
	doc.measure("convert/reuse", vbytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cv.Convert(d, p.Ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.measure("crwi/build", vbytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cv.BuildCRWI(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	doc.measure("diff/one-shot", vbytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := l.Diff(p.Ref, p.Version); err != nil {
				b.Fatal(err)
			}
		}
	})
	dr := diff.NewDiffer()
	doc.measure("diff/reuse", vbytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dr.Diff(p.Ref, p.Version); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Chunked dedup tier: content-defined split and ingest throughput,
	// then the recipe-diff fast path against the full-image reuse differ
	// on the same 5%-blocky-churn input at growing sizes. Recipes are
	// pre-ingested — the recipe rows measure diffing versions the store
	// already holds, the serving steady state; ingest cost is its own row.
	// The chunk store and recipe differ share the metrics registry, so the
	// dedup hit/miss/bytes-saved counters land in the document's metrics.
	chunkSizes := []int{1 << 20, 16 << 20, 256 << 20}
	if quick {
		chunkSizes = []int{1 << 20}
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

		doc.measure("chunk/split/"+label, int64(csz), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				ck.Split(oldImg, func(c []byte) { sink += len(c) })
			}
			_ = sink
		})
		doc.measure("chunk/ingest/"+label, int64(csz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh := chunk.NewStore()
				fresh.IngestAll(ck, oldImg)
			}
		})

		cstore := chunk.NewStore(chunk.WithObserver(reg))
		ro := cstore.IngestAll(ck, oldImg)
		rn := cstore.IngestAll(ck, newImg)
		doc.measure("recipe/diff/"+label, int64(csz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rd.DiffRecipes(ro, rn, cstore); err != nil {
					b.Fatal(err)
				}
			}
		})
		doc.measure("diff/full/"+label, int64(csz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dr.Diff(oldImg, newImg); err != nil {
					b.Fatal(err)
				}
			}
		})
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
	doc.measure(fmt.Sprintf("store/cold/%d", chainDepth), headBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cold.Version(head); err != nil {
				b.Fatal(err)
			}
		}
	})
	if _, err := cached.Version(head); err != nil {
		return fmt.Errorf("bench-baseline: warm cache: %w", err)
	}
	doc.measure(fmt.Sprintf("store/cached/%d", chainDepth), headBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cached.Version(head); err != nil {
				b.Fatal(err)
			}
		}
	})

	jobs := make([]inplace.Job, 0, batchJobs)
	var batchBytes int64
	for k := 0; k < batchJobs; k++ {
		jp := corpus.Generate(corpus.PairSpec{
			Profile:    corpus.Binary,
			Size:       size / 4,
			ChangeRate: 0.08,
			Seed:       seed + int64(k),
		})
		jd, err := l.Diff(jp.Ref, jp.Version)
		if err != nil {
			return fmt.Errorf("bench-baseline: batch diff %d: %w", k, err)
		}
		jobs = append(jobs, inplace.Job{Delta: jd, Ref: jp.Ref})
		batchBytes += int64(len(jp.Version))
	}
	doc.measure(fmt.Sprintf("batch/%d", batchJobs), batchBytes, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range inplace.ConvertBatch(jobs, 0) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})

	// Fold the shared registry in once, at the end: the convert stages and
	// the chunk tier's dedup counters all report through reg.
	doc.addRegistry(reg)

	f, err := os.Create(outPath)
	if err != nil {
		return fmt.Errorf("bench-baseline: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("bench-baseline: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench-baseline: %w", err)
	}

	fmt.Fprintf(out, "benchmark baseline (%d-byte input, seed %d) -> %s\n", size, seed, outPath)
	fmt.Fprintf(out, "environment: %d CPU, GOMAXPROCS %d, %s %s/%s — parallel rows reflect this parallelism\n\n",
		doc.Environment.NumCPU, doc.Environment.GOMAXPROCS,
		doc.Environment.GoVersion, doc.Environment.GOOS, doc.Environment.GOARCH)
	fmt.Fprintf(out, "%-18s %12s %14s %12s %10s\n", "benchmark", "iters", "ns/op", "allocs/op", "MB/s")
	for _, r := range doc.Results {
		fmt.Fprintf(out, "%-18s %12d %14.0f %12d %10.1f\n",
			r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.MBPerSec)
	}
	return nil
}
