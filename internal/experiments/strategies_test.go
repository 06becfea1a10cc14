package experiments

import (
	"strings"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
)

func TestRunStrategies(t *testing.T) {
	res, err := RunStrategies(testCorpus(t), diff.NewLinear(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byName := map[string]StrategyRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	lm := byName["dfs/locally-minimum"]
	ct := byName["dfs/constant-time"]
	// On the corpus, LM must not be worse than CT overall.
	if lm.CorpusBytes > ct.CorpusBytes {
		t.Errorf("LM corpus bytes %d worse than CT %d", lm.CorpusBytes, ct.CorpusBytes)
	}
	// Splitting at conflict boundaries converts fewer bytes than the
	// paper's locally-minimum resolution on the corpus and on the tree.
	split := byName["split/locally-minimum"]
	if split.CorpusBytes > lm.CorpusBytes {
		t.Errorf("split corpus bytes %d worse than LM %d", split.CorpusBytes, lm.CorpusBytes)
	}
	if split.TreeBytes >= lm.TreeBytes {
		t.Errorf("split tree bytes %d not better than LM %d", split.TreeBytes, lm.TreeBytes)
	}

	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "strategy ablation") {
		t.Fatal("render missing title")
	}
}

func TestRunComposition(t *testing.T) {
	base := corpus.Generate(corpus.PairSpec{Profile: corpus.Binary, Size: 24 << 10, ChangeRate: 0.05, Seed: 5})
	res, err := RunComposition(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.InPlaceOK {
			t.Errorf("hop %d: composed delta not in-place convertible", row.HopCount)
		}
		if row.Overhead < 0.5 {
			t.Errorf("hop %d: overhead %.2f implausibly low", row.HopCount, row.Overhead)
		}
	}
	// Overhead should generally not shrink as hops grow (composition
	// accumulates fragmentation); allow equality.
	if res.Rows[len(res.Rows)-1].ComposedBytes < res.Rows[0].ComposedBytes {
		t.Log("note: composed size decreased with hops (unusual but possible)")
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "composed") {
		t.Fatal("render missing title")
	}
}

func TestRunAlgorithms(t *testing.T) {
	res, err := RunAlgorithms(testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byName := map[string]AlgorithmRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
		if row.Compression <= 0 || row.InPlaceCompression < row.Compression-0.001 {
			t.Errorf("%s: implausible compressions %+v", row.Name, row)
		}
	}
	// Block granularity must not beat byte granularity on compression.
	if byName["blockwise"].Compression < byName["linear"].Compression {
		t.Errorf("blockwise (%.3f) beat linear (%.3f)",
			byName["blockwise"].Compression, byName["linear"].Compression)
	}
	// The suffix-array differencer is the compression upper bound here.
	if byName["suffix"].Compression > byName["linear"].Compression+0.01 {
		t.Errorf("suffix (%.3f) notably worse than linear (%.3f)",
			byName["suffix"].Compression, byName["linear"].Compression)
	}
	// The correcting pass never loses to its inner linear differencer.
	if byName["correcting"].Compression > byName["linear"].Compression+0.001 {
		t.Errorf("correcting (%.4f) worse than linear (%.4f)",
			byName["correcting"].Compression, byName["linear"].Compression)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "algorithm ablation") {
		t.Fatal("render missing title")
	}
}

func TestRunFleet(t *testing.T) {
	res, err := RunFleet(16<<10, 3, 12, 256_000, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	full, scratch, inplaceRow := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(inplaceRow.BytesOnWire < scratch.BytesOnWire && scratch.BytesOnWire <= full.BytesOnWire) {
		t.Fatalf("byte ordering wrong: %+v", res.Rows)
	}
	if inplaceRow.Fallbacks != 0 {
		t.Fatalf("in-place mode fell back %d times", inplaceRow.Fallbacks)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fleet rollout") {
		t.Fatal("render missing title")
	}
}

func TestRunScratch(t *testing.T) {
	res, err := RunScratch(testCorpus(t), diff.NewLinear(), []float64{0, 0.01, 0.10, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Monotone: more scratch never yields a larger delta.
	for k := 1; k < len(res.Rows); k++ {
		if res.Rows[k].DeltaBytes > res.Rows[k-1].DeltaBytes {
			t.Fatalf("budget %.2f produced a larger delta than %.2f",
				res.Rows[k].Budget, res.Rows[k-1].Budget)
		}
	}
	// Zero budget: nothing stashed; full budget: nothing converted.
	if res.Rows[0].Stashed != 0 {
		t.Fatalf("zero budget stashed %d", res.Rows[0].Stashed)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Converted != 0 {
		t.Fatalf("full budget still converted %d", last.Converted)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bounded-scratch") {
		t.Fatal("render missing title")
	}
}
