package ipdelta

// One benchmark per table/figure of the paper (see DESIGN.md §4), plus
// micro-benchmarks for the pipeline stages. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's numbers to compare shapes against:
//   - Table 1: compression 15.3% → 17.2% (offsets) → 17.7% (LM) → 21.2% (CT)
//   - §7: in-place conversion ≈ 56% of delta-compression time
//   - Figure 2: locally-minimum k× worse than optimal on the tree
//   - Figure 3 / Lemma 1: Θ(|C|²) edges, ≤ L
//   - §1: transfers shrink 4–10×

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/device"
	"ipdelta/internal/diff"
	"ipdelta/internal/experiments"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/store"
)

// benchPair returns a deterministic binary version pair for the
// micro-benchmarks.
func benchPair(size int) corpus.Pair {
	return corpus.Generate(corpus.PairSpec{
		Profile:    corpus.Binary,
		Size:       size,
		ChangeRate: 0.08,
		Seed:       1998,
	})
}

// BenchmarkTable1 regenerates the paper's Table 1 over the small corpus
// (E1). Use cmd/ipbench -table1 for the full corpus with printed rows.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	pairs := corpus.SmallCorpus(1998)
	algo := diff.NewLinear()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(pairs, algo)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkConvertVsDiff* reproduce the §7 timing claim (E2): compare the
// per-op times of these three benchmarks — conversion should be well under
// diff time, and locally-minimum should not cost more than constant-time.
func BenchmarkConvertVsDiffDiff(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	algo := diff.NewLinear()
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Diff(p.Ref, p.Version); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkConvert(b *testing.B, policy graph.Policy) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inplace.Convert(d, p.Ref, inplace.WithPolicy(policy)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvertVsDiffConvertLM(b *testing.B) { benchmarkConvert(b, graph.LocallyMinimum{}) }
func BenchmarkConvertVsDiffConvertCT(b *testing.B) { benchmarkConvert(b, graph.ConstantTime{}) }

// BenchmarkFig2Adversarial drives the Figure 2 adversarial tree (E3).
func BenchmarkFig2Adversarial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2([]int{8}, 64)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].LMOverOptimal < float64(res.Rows[0].Leaves)/4 {
			b.Fatal("adversarial gap collapsed")
		}
	}
}

// BenchmarkFig3EdgeBound drives the Figure 3 quadratic-edge construction
// (E4), including the Lemma 1 check.
func BenchmarkFig3EdgeBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3([]int{256})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Rows[0].BoundOK {
			b.Fatal("Lemma 1 violated")
		}
	}
}

// BenchmarkTransfer runs one full update session per iteration (E5).
func BenchmarkTransfer(b *testing.B) {
	b.ReportAllocs()
	pairs := corpus.SmallCorpus(1998)[:1]
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTransfer(pairs, []int64{28_800})
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanSpeedup <= 1 {
			b.Fatal("no speedup")
		}
	}
}

// BenchmarkCodewords measures the format ablation (E6).
func BenchmarkCodewords(b *testing.B) {
	b.ReportAllocs()
	pairs := corpus.SmallCorpus(1998)
	algo := diff.NewLinear()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCodewords(pairs, algo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicies measures the policy-vs-optimal ablation (E7) on a
// reduced instance count.
func BenchmarkPolicies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPolicies(20, 10, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline micro-benchmarks ---

func BenchmarkDiffLinear(b *testing.B) {
	b.ReportAllocs()
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			b.ReportAllocs()
			p := benchPair(size)
			algo := diff.NewLinear()
			b.SetBytes(int64(len(p.Version)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algo.Diff(p.Ref, p.Version); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiffGreedy(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(64 << 10)
	algo := diff.NewGreedy()
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Diff(p.Ref, p.Version); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCompact(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	ip, _, err := DiffInPlace(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(io.Discard, ip, codec.FormatCompact); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCompact(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	ip, _, err := DiffInPlace(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, ip, codec.FormatCompact); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decode(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyScratch(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	ip, _, err := DiffInPlace(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Apply(p.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyInPlace(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	ip, _, err := DiffInPlace(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, ip.InPlaceBufLen())
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, p.Ref)
		if err := ip.ApplyInPlace(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceApply(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	ip, _, err := DiffInPlace(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := codec.Encode(&buf, ip, codec.FormatCompact); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	capacity := ip.InPlaceBufLen()
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		flash, err := device.NewFlash(p.Ref, capacity)
		if err != nil {
			b.Fatal(err)
		}
		dev := device.New(flash, int64(len(p.Ref)), device.DefaultWorkBufSize)
		b.StartTimer()
		if err := dev.Apply(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRWIConstruction(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(1 << 20)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(d.NumCopies()), "copies")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inplace.Convert(d, p.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrategies measures the E8 cycle-breaking strategy ablation.
func BenchmarkStrategies(b *testing.B) {
	b.ReportAllocs()
	pairs := corpus.SmallCorpus(1998)
	algo := diff.NewLinear()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStrategies(pairs, algo, 6, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComposition measures the E9 composed-chain experiment.
func BenchmarkComposition(b *testing.B) {
	b.ReportAllocs()
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 32 << 10, ChangeRate: 0.05, Seed: 1998})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunComposition(base, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompose measures raw two-delta composition.
func BenchmarkCompose(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	d1, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	mid := p.Version
	next := append([]byte(nil), mid...)
	copy(next[1024:8192], mid[32<<10:])
	d2, err := diff.NewLinear().Diff(mid, next)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.Compose(d1, d2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAppendAndServe measures delta-chain store operations.
func BenchmarkStoreAppendAndServe(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(64 << 10)
	for i := 0; i < b.N; i++ {
		s := store.New(p.Ref)
		if _, err := s.AppendVersion(p.Version); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.InPlaceDeltaTo(0, graph.LocallyMinimum{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreVersionCached measures serving the head of a deep delta
// chain cold (replay per request) and through the materialization cache.
func BenchmarkStoreVersionCached(b *testing.B) {
	const depth = 32
	p := benchPair(64 << 10)
	versions := [][]byte{p.Ref}
	cur := p.Ref
	for k := 1; k < depth; k++ {
		v := append([]byte(nil), cur...)
		splice := len(v) / 6
		off := (k * 131) % (len(v) - splice)
		copy(v[off:off+splice], p.Version[off:off+splice])
		for j := 0; j < 64; j++ {
			v[(off+j*97)%len(v)] ^= byte(k)
		}
		versions = append(versions, v)
		cur = v
	}
	build := func(b *testing.B, opts ...store.Option) *store.Store {
		s := store.New(versions[0], opts...)
		for _, v := range versions[1:] {
			if _, err := s.AppendVersion(v); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	head := depth - 1
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		s := build(b)
		b.SetBytes(int64(len(versions[head])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Version(head); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		s := build(b, store.WithCache(8))
		if _, err := s.Version(head); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(versions[head])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Version(head); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgorithms measures the E10 differencing algorithm ablation.
func BenchmarkAlgorithms(b *testing.B) {
	b.ReportAllocs()
	pairs := corpus.SmallCorpus(1998)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAlgorithms(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffBlockwise complements the linear/greedy micro-benchmarks.
func BenchmarkDiffBlockwise(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(64 << 10)
	algo := diff.NewBlockwise()
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Diff(p.Ref, p.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the conflict analysis used by `ipdelta info`.
func BenchmarkAnalyze(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inplace.Analyze(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleet measures the E11 fleet rollout simulation.
func BenchmarkFleet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFleet(16<<10, 3, 10, 256_000, 1998); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScratch measures the E12 bounded-scratch trade-off sweep.
func BenchmarkScratch(b *testing.B) {
	b.ReportAllocs()
	pairs := corpus.SmallCorpus(1998)
	algo := diff.NewLinear()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScratch(pairs, algo, []float64{0, 0.05, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvert measures reverse-delta generation.
func BenchmarkInvert(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.Invert(d, p.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiffSuffix completes the differencing micro-benchmarks.
func BenchmarkDiffSuffix(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(64 << 10)
	algo := diff.NewSuffix()
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Diff(p.Ref, p.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertScratchBudget measures conversion under a scratch budget.
func BenchmarkConvertScratchBudget(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inplace.Convert(d, p.Ref, inplace.WithScratchBudget(16<<10)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- zero-allocation pipeline benchmarks ---
//
// These pair with the one-shot benchmarks above: the same work through a
// reusable Converter, whose steady-state allocation count is gated by
// AllocsPerRun tests in internal/inplace.

// BenchmarkConverterReuse measures conversion through a pooled Converter
// (compare with BenchmarkConvertVsDiffConvertLM, the one-shot path).
func BenchmarkConverterReuse(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(256 << 10)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	cv := inplace.NewConverter()
	b.SetBytes(int64(len(p.Version)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cv.Convert(d, p.Ref); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCRWI isolates sweep-line CRWI digraph construction
// (validate + partition + sort + build, no topological sort or emission).
func BenchmarkBuildCRWI(b *testing.B) {
	b.ReportAllocs()
	p := benchPair(1 << 20)
	d, err := diff.NewLinear().Diff(p.Ref, p.Version)
	if err != nil {
		b.Fatal(err)
	}
	cv := inplace.NewConverter()
	b.ReportMetric(float64(d.NumCopies()), "copies")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cv.BuildCRWI(d); err != nil {
			b.Fatal(err)
		}
	}
}
