package inplace

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/delta"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/obs"
)

// randomDelta builds a valid delta over a reference of the given length:
// the version is partitioned into random-length chunks, each becoming a
// copy from a random reference offset or an add. Reads may overlap each
// other and any write, so CRWI digraphs of every shape (including cycles)
// arise.
func randomDelta(rng *rand.Rand, refLen int64) *delta.Delta {
	d := &delta.Delta{RefLen: refLen, VersionLen: refLen}
	var at int64
	for at < refLen {
		l := int64(1 + rng.Intn(64))
		if l > refLen-at {
			l = refLen - at
		}
		if rng.Intn(4) == 0 {
			data := make([]byte, l)
			rng.Read(data)
			d.Commands = append(d.Commands, delta.NewAdd(at, data))
		} else {
			from := rng.Int63n(refLen - l + 1)
			d.Commands = append(d.Commands, delta.NewCopy(from, at, l))
		}
		at += l
	}
	// Shuffle so input order exercises the write-offset sort.
	rng.Shuffle(len(d.Commands), func(i, j int) {
		d.Commands[i], d.Commands[j] = d.Commands[j], d.Commands[i]
	})
	return d
}

// sortedCopies extracts d's copy commands in write-offset order, the input
// both CRWI builders require.
func sortedCopies(t *testing.T, d *delta.Delta) []delta.Command {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid delta: %v", err)
	}
	var copies []delta.Command
	for _, c := range d.Commands {
		if c.Op == delta.OpCopy {
			copies = append(copies, c)
		}
	}
	slices.SortFunc(copies, commandsByWriteOffset)
	return copies
}

// requireSameGraph asserts two graphs have identical vertex counts and
// per-vertex successor lists, in order.
func requireSameGraph(t *testing.T, name string, want, got *graph.CSR) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() {
		t.Fatalf("%s: vertices: reference %d, sweep-line %d", name, want.NumVertices(), got.NumVertices())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: edges: reference %d, sweep-line %d", name, want.NumEdges(), got.NumEdges())
	}
	for u := 0; u < want.NumVertices(); u++ {
		if !slices.Equal(want.Succ(u), got.Succ(u)) {
			t.Fatalf("%s: successors of %d: reference %v, sweep-line %v",
				name, u, want.Succ(u), got.Succ(u))
		}
	}
}

// TestSweepLineCRWIMatchesReference proves the sweep-line CSR builder
// produces the exact edge set (including per-vertex successor order) of
// the binary-search reference builder, on seeded random deltas and on the
// paper's Figure 2 and Figure 3 constructions.
func TestSweepLineCRWIMatchesReference(t *testing.T) {
	var cs crwiScratch // shared across cases: reuse must not leak state
	check := func(name string, d *delta.Delta) {
		copies := sortedCopies(t, d)
		requireSameGraph(t, name, buildCRWI(copies), cs.build(copies))
	}

	rng := rand.New(rand.NewSource(1998))
	for i := 0; i < 200; i++ {
		refLen := int64(1 + rng.Intn(2000))
		check(fmt.Sprintf("random-%d", i), randomDelta(rng, refLen))
	}
	for b := 2; b <= 17; b += 5 {
		check(fmt.Sprintf("quadratic-%d", b), QuadraticDelta(b))
	}
	for depth := 1; depth <= 6; depth++ {
		check(fmt.Sprintf("adversarial-%d", depth), AdversarialDelta(depth, 16))
	}
}

// TestSweepLineEmpty covers the degenerate no-copies build.
func TestSweepLineEmpty(t *testing.T) {
	var cs crwiScratch
	g := cs.build(nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty build: got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

// TestConverterReuseMatchesConvert interleaves conversions of many
// different deltas through one Converter and checks every pooled result
// against the free Convert function, immediately while the result is
// valid.
func TestConverterReuseMatchesConvert(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cv := NewConverter()
	for i := 0; i < 60; i++ {
		refLen := int64(1 + rng.Intn(1500))
		d := randomDelta(rng, refLen)
		ref := make([]byte, refLen)
		rng.Read(ref)

		got, gotStats, err := cv.Convert(d, ref)
		if err != nil {
			t.Fatalf("case %d: pooled convert: %v", i, err)
		}
		want, wantStats, err := Convert(d, ref)
		if err != nil {
			t.Fatalf("case %d: free convert: %v", i, err)
		}
		if len(got.Commands) != len(want.Commands) {
			t.Fatalf("case %d: %d commands, want %d", i, len(got.Commands), len(want.Commands))
		}
		for k := range got.Commands {
			if !got.Commands[k].Equal(want.Commands[k]) {
				t.Fatalf("case %d: command %d: got %v, want %v", i, k, got.Commands[k], want.Commands[k])
			}
		}
		if *gotStats != *wantStats {
			t.Fatalf("case %d: stats %+v, want %+v", i, *gotStats, *wantStats)
		}
		if err := got.CheckInPlace(); err != nil {
			t.Fatalf("case %d: pooled output not in-place safe: %v", i, err)
		}
		wantOut, err := d.Apply(ref)
		if err != nil {
			t.Fatalf("case %d: apply input: %v", i, err)
		}
		gotOut, err := got.Apply(ref)
		if err != nil {
			t.Fatalf("case %d: apply converted: %v", i, err)
		}
		if !bytes.Equal(wantOut, gotOut) {
			t.Fatalf("case %d: converted delta materializes different bytes", i)
		}
	}
}

// TestConverterReuseWithOptions checks reuse under the paper's strategy,
// the other policy and the scratch budget, where the converter exercises
// its stash and unstash scratch.
func TestConverterReuseWithOptions(t *testing.T) {
	for _, opts := range [][]Option{
		{WithStrategy(StrategyDFS)},
		{WithPolicy(graph.ConstantTime{})},
		{WithScratchBudget(64)},
	} {
		cv := NewConverter(opts...)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 25; i++ {
			refLen := int64(1 + rng.Intn(800))
			d := randomDelta(rng, refLen)
			ref := make([]byte, refLen)
			rng.Read(ref)
			got, _, err := cv.Convert(d, ref)
			if err != nil {
				t.Fatalf("case %d: pooled convert: %v", i, err)
			}
			want, _, err := Convert(d, ref, opts...)
			if err != nil {
				t.Fatalf("case %d: free convert: %v", i, err)
			}
			if len(got.Commands) != len(want.Commands) {
				t.Fatalf("case %d: %d commands, want %d", i, len(got.Commands), len(want.Commands))
			}
			for k := range got.Commands {
				if !got.Commands[k].Equal(want.Commands[k]) {
					t.Fatalf("case %d: command %d: got %v, want %v", i, k, got.Commands[k], want.Commands[k])
				}
			}
		}
	}
}

// TestConvertPooledDetaches proves the free Convert function's results
// survive later calls, which reuse the same pooled converters, while
// Converter.Convert results are converter-owned.
func TestConvertPooledDetaches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	refLen := int64(1200)
	d := randomDelta(rng, refLen)
	ref := make([]byte, refLen)
	rng.Read(ref)

	kept, _, err := Convert(d, ref)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	snapshot := kept.Clone()

	// Churn the pooled converters with other work.
	for i := 0; i < 10; i++ {
		d2 := randomDelta(rng, 700)
		ref2 := make([]byte, 700)
		rng.Read(ref2)
		if _, _, err := Convert(d2, ref2); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}

	if len(kept.Commands) != len(snapshot.Commands) {
		t.Fatalf("detached result changed length: %d, was %d", len(kept.Commands), len(snapshot.Commands))
	}
	for k := range kept.Commands {
		if !kept.Commands[k].Equal(snapshot.Commands[k]) {
			t.Fatalf("detached result mutated at command %d: %v, was %v",
				k, kept.Commands[k], snapshot.Commands[k])
		}
	}
}

// TestConverterConvertAllocs is the steady-state allocation gate for the
// pooled conversion path: after warm-up, (*Converter).Convert must perform
// at most 2 allocations per call (it is expected to reach 0; the slack
// tolerates runtime-internal noise, not converter regressions).
func TestConverterConvertAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refLen := int64(4096)
	d := randomDelta(rng, refLen)
	ref := make([]byte, refLen)
	rng.Read(ref)

	cv := NewConverter()
	if _, _, err := cv.Convert(d, ref); err != nil { // warm the scratch
		t.Fatalf("warm-up convert: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := cv.Convert(d, ref); err != nil {
			t.Fatalf("convert: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state (*Converter).Convert allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestConverterConvertAllocsWithObserver holds an observed converter to
// the same gate as an unobserved one: metric handles are pre-resolved and
// spans are value types, so a registered registry must add zero
// allocations to the steady-state convert path.
func TestConverterConvertAllocsWithObserver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	refLen := int64(4096)
	d := randomDelta(rng, refLen)
	ref := make([]byte, refLen)
	rng.Read(ref)

	reg := obs.NewRegistry()
	cv := NewConverter(WithObserver(reg))
	if _, _, err := cv.Convert(d, ref); err != nil { // warm the scratch
		t.Fatalf("warm-up convert: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := cv.Convert(d, ref); err != nil {
			t.Fatalf("convert: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("observed (*Converter).Convert allocates %.1f times per call, want <= 2", allocs)
	}
	if reg.Snapshot().Counter("ipdelta_convert_total") == 0 {
		t.Fatal("observer recorded nothing; the gate proved the wrong thing")
	}
}

// TestBuildCRWIProbe sanity-checks the structural probe against Stats.
func TestBuildCRWIProbe(t *testing.T) {
	d := QuadraticDelta(9)
	cv := NewConverter()
	copies, edges, err := cv.BuildCRWI(d)
	if err != nil {
		t.Fatalf("BuildCRWI: %v", err)
	}
	if want := 2*9 - 1; copies != want {
		t.Fatalf("copies = %d, want %d", copies, want)
	}
	if want := 8 * 9; edges != want { // (b−1)·b edges, §6 Figure 3
		t.Fatalf("edges = %d, want %d", edges, want)
	}
	if _, _, err := cv.BuildCRWI(&delta.Delta{}); err != nil {
		t.Fatalf("BuildCRWI on empty delta: %v", err)
	}
}

// TestConverterConvertAllocsSplit holds the split path to the same gate:
// on record releases whose moved runs put hundreds of copies in cycles,
// the converter cuts, re-sorts and merges pieces — all over pooled
// scratch — and must reach steady state without allocating.
func TestConverterConvertAllocsSplit(t *testing.T) {
	chain := corpus.RecordChain(11, 256<<10, 3)
	d, err := diff.NewLinear().Diff(chain[0], chain[2])
	if err != nil {
		t.Fatal(err)
	}
	cv := NewConverter()
	_, st, err := cv.Convert(d, chain[0]) // warm the scratch
	if err != nil {
		t.Fatalf("warm-up convert: %v", err)
	}
	if st.SplitComponents == 0 {
		t.Fatal("input split no component; the gate would not cover the split path")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := cv.Convert(d, chain[0]); err != nil {
			t.Fatalf("convert: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("steady-state split (*Converter).Convert allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestPieceGraphMatchesReference proves the split strategy's piece
// digraph, built from the copies' write ranges without a read-order sort,
// has the exact edge set (successor order included) of the reference
// builder run over the pieces, restricted to edges within a component.
func TestPieceGraphMatchesReference(t *testing.T) {
	chain := corpus.RecordChain(3, 128<<10, 5)
	inputs := [][2][]byte{{chain[3], chain[4]}, {chain[0], chain[4]}}
	for _, p := range corpus.SmallCorpus(1998) {
		inputs = append(inputs, [2][]byte{p.Ref, p.Version})
	}
	checked := 0
	for k, in := range inputs {
		d, err := diff.NewLinear().Diff(in[0], in[1])
		if err != nil {
			t.Fatal(err)
		}
		cv := NewConverter()
		if _, _, err := cv.Convert(d, in[0]); err != nil {
			t.Fatal(err)
		}
		sp := &cv.sp
		if len(sp.pieces) == 0 {
			continue
		}
		checked++
		ref := buildCRWI(sp.pieces)
		var edges [][2]int32
		for u := 0; u < ref.NumVertices(); u++ {
			for _, v := range ref.Succ(u) {
				if sp.label[u] == sp.label[v] {
					edges = append(edges, [2]int32{int32(u), v})
				}
			}
		}
		requireSameGraph(t, fmt.Sprintf("input-%d", k), graph.FromEdges(len(sp.pieces), edges), sp.pieceGraph(cv))
	}
	if checked < 2 {
		t.Fatalf("only %d inputs were cut into pieces", checked)
	}
}

// TestConvertPooledStartsFresh checks that the free Convert function's
// pooled converters start every call from the caller's options alone: a
// call with a scratch budget, another policy, the paper's strategy and an
// observer must leave nothing behind for the next, default call.
func TestConvertPooledStartsFresh(t *testing.T) {
	chain := corpus.RecordChain(5, 128<<10, 3)
	d, err := diff.NewLinear().Diff(chain[0], chain[2])
	if err != nil {
		t.Fatal(err)
	}
	out, outSt, err := NewConverter().Convert(d, chain[0])
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := out.Clone(), *outSt
	reg := obs.NewRegistry()
	for i := 0; i < 3; i++ {
		if _, _, err := Convert(d, chain[0], WithScratchBudget(4096), WithPolicy(graph.ConstantTime{}),
			WithStrategy(StrategyDFS), WithObserver(reg)); err != nil {
			t.Fatal(err)
		}
		got, st, err := Convert(d, chain[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || *st != wantSt {
			t.Fatalf("round %d: pooled Convert differs from a fresh converter: stats %+v, want %+v", i, *st, wantSt)
		}
	}
	if n := reg.Snapshot().Counters["ipdelta_convert_total"]; n != 3 {
		t.Fatalf("observer saw %d conversions, want 3 (the observed calls only)", n)
	}
}

// TestConvertPooledAllocs gates the free Convert function: its working
// memory comes from a pool, so a steady-state call allocates only the
// caller-owned result (delta, commands, literal arena, stats), not the
// partition, digraph, sort and split scratch.
func TestConvertPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pool
	chain := corpus.RecordChain(11, 256<<10, 3)
	d, err := diff.NewLinear().Diff(chain[0], chain[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Convert(d, chain[0]); err != nil { // warm the pool
		t.Fatalf("warm-up convert: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := Convert(d, chain[0]); err != nil {
			t.Fatalf("convert: %v", err)
		}
	})
	if allocs > 4 {
		t.Fatalf("steady-state Convert allocates %.1f times per call, want <= 4", allocs)
	}
}

// TestConvertPooledConcurrent runs the free Convert function from several
// goroutines at once, with different inputs and options, so pooled
// converters pass between goroutines and configurations; every result
// must equal a fresh converter's.
func TestConvertPooledConcurrent(t *testing.T) {
	chain := corpus.RecordChain(9, 64<<10, 4)
	type job struct {
		d    *delta.Delta
		ref  []byte
		opts []Option
		want *delta.Delta
	}
	var jobs []job
	for back := 1; back <= 3; back++ {
		d, err := diff.NewLinear().Diff(chain[3-back], chain[3])
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]Option{nil, {WithStrategy(StrategyDFS)}, {WithScratchBudget(2048)}} {
			out, _, err := NewConverter(opts...).Convert(d, chain[3-back])
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{d, chain[3-back], opts, out.Clone()})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for k := range jobs {
					j := jobs[(k+g)%len(jobs)]
					got, _, err := Convert(j.d, j.ref, j.opts...)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, j.want) {
						t.Errorf("goroutine %d: pooled Convert differs from a fresh converter", g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
