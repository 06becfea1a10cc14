package experiments

import (
	"strings"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
)

func testCorpus(t *testing.T) []corpus.Pair {
	t.Helper()
	return corpus.SmallCorpus(7)
}

func TestRunTable1(t *testing.T) {
	res, err := RunTable1(testCorpus(t), diff.NewLinear())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	ordered, offsets, lm, ct := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]

	// The paper's orderings must hold: write offsets cost compression, and
	// the in-place variants cost at least that much.
	if !(ordered.Compression < offsets.Compression) {
		t.Errorf("offsets (%.3f) not worse than ordered (%.3f)", offsets.Compression, ordered.Compression)
	}
	if lm.Compression < offsets.Compression {
		t.Errorf("LM (%.3f) better than offsets (%.3f)", lm.Compression, offsets.Compression)
	}
	if ct.Compression < lm.Compression {
		t.Errorf("constant-time (%.3f) beat locally-minimum (%.3f)", ct.Compression, lm.Compression)
	}
	if res.ConvertedCT < res.ConvertedLM {
		// CT converts at least as many copies (it never hunts for the
		// cheapest), though equality is possible.
		t.Logf("note: CT converted %d, LM %d", res.ConvertedCT, res.ConvertedLM)
	}
	// Loss decomposition must be self-consistent.
	if diff := lm.EncodingLoss + lm.CycleLoss - lm.TotalLoss; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("LM losses do not sum: %f + %f != %f", lm.EncodingLoss, lm.CycleLoss, lm.TotalLoss)
	}

	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") || !strings.Contains(sb.String(), "locally minimum") {
		t.Fatalf("render output:\n%s", sb.String())
	}
}

// TestRunTable1Split checks the split row reported next to the paper's
// Table 1: splitting never loses compression against the paper's
// locally-minimum conversion, and its losses decompose like the paper's.
func TestRunTable1Split(t *testing.T) {
	res, err := RunTable1(testCorpus(t), diff.NewLinear())
	if err != nil {
		t.Fatal(err)
	}
	offsets, lm, split := res.Rows[1], res.Rows[2], res.Split
	if split.Compression > lm.Compression {
		t.Errorf("split (%.4f) worse than locally-minimum (%.4f)", split.Compression, lm.Compression)
	}
	if split.Compression < offsets.Compression {
		t.Errorf("split (%.4f) better than the unconverted offsets delta (%.4f)", split.Compression, offsets.Compression)
	}
	if d := split.EncodingLoss + split.CycleLoss - split.TotalLoss; d > 1e-9 || d < -1e-9 {
		t.Errorf("split losses do not sum: %f + %f != %f", split.EncodingLoss, split.CycleLoss, split.TotalLoss)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "split at conflict boundaries") {
		t.Fatalf("render output lacks the split row:\n%s", sb.String())
	}
}

func TestRunTiming(t *testing.T) {
	res, err := RunTiming(testCorpus(t), diff.NewLinear())
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffTotal <= 0 || res.ConvertLM <= 0 || res.ConvertCT <= 0 {
		t.Fatalf("timings: %+v", res)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "run time") {
		t.Fatalf("render output:\n%s", sb.String())
	}
}

func TestRunFig2(t *testing.T) {
	res, err := RunFig2([]int{2, 3, 4}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	prev := 0.0
	for _, row := range res.Rows {
		if row.LMBytes != int64(row.Leaves*32) {
			t.Errorf("depth %d: LM converted %d bytes, want %d", row.Depth, row.LMBytes, row.Leaves*32)
		}
		if row.LMOverOptimal <= prev {
			t.Errorf("depth %d: ratio %.1f did not grow", row.Depth, row.LMOverOptimal)
		}
		prev = row.LMOverOptimal
		// Constant time should do no worse than LM here: it deletes at the
		// cycle-closing vertex, and in the tree that's not every leaf.
		if row.CTBytes > row.LMBytes {
			t.Logf("depth %d: CT %d > LM %d", row.Depth, row.CTBytes, row.LMBytes)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Fatal("render missing title")
	}
}

func TestFig2OptimalMatchesExhaustive(t *testing.T) {
	// The driver hardcodes the optimal as the root's 2·leafLen bytes;
	// cross-check with the exhaustive search at a small depth, at the
	// graph level where vertex costs are the converted byte counts.
	res, err := RunFig2([]int{2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].OptimalBytes != 32 {
		t.Fatalf("optimal bytes = %d", res.Rows[0].OptimalBytes)
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3([]int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.BoundOK {
			t.Errorf("b=%d: Lemma 1 bound violated (%d edges > L=%d)", row.B, row.Edges, row.L)
		}
		if row.Edges != (row.B-1)*row.B {
			t.Errorf("b=%d: %d edges, want %d", row.B, row.Edges, (row.B-1)*row.B)
		}
		// Quadratic shape: edges/|C|² stays bounded away from zero.
		if row.EdgesOverC2 < 0.2 {
			t.Errorf("b=%d: edges/|C|² = %.3f, lost the quadratic shape", row.B, row.EdgesOverC2)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Lemma 1") {
		t.Fatal("render missing title")
	}
}

func TestRunTransfer(t *testing.T) {
	res, err := RunTransfer(testCorpus(t), []int64{28_800, 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Speedup <= 1 {
			t.Errorf("%s: speedup %.1f, delta not smaller than image", row.Name, row.Speedup)
		}
	}
	if res.MeanSpeedup <= 1 {
		t.Fatalf("mean speedup %.2f", res.MeanSpeedup)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "28.8kbps") || !strings.Contains(out, "1Mbps") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestRunCodewords(t *testing.T) {
	res, err := RunCodewords(testCorpus(t), diff.NewLinear())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byName := map[string]CodewordRow{}
	for _, row := range res.Rows {
		byName[row.Format.String()] = row
	}
	// The paper's shape: legacy codewords suffer most from write offsets;
	// the compact redesign must beat the plain offsets format.
	legacyPenalty := byName["legacy-offsets"].Bytes - byName["legacy-ordered"].Bytes
	varintPenalty := byName["offsets"].Bytes - byName["ordered"].Bytes
	if legacyPenalty <= varintPenalty {
		t.Errorf("legacy offset penalty %d not worse than varint %d", legacyPenalty, varintPenalty)
	}
	if byName["compact"].Bytes >= byName["offsets"].Bytes {
		t.Errorf("compact (%d) did not improve on offsets (%d)", byName["compact"].Bytes, byName["offsets"].Bytes)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "codeword") {
		t.Fatal("render missing title")
	}
}

func TestRunPolicies(t *testing.T) {
	res, err := RunPolicies(30, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 30 || len(res.Rows) != 2 {
		t.Fatalf("%+v", res)
	}
	for _, row := range res.Rows {
		if row.MeanOverOptimal < 1 {
			t.Errorf("%s: mean ratio %.2f below 1 — beat the optimum?!", row.Policy, row.MeanOverOptimal)
		}
	}
	// Locally minimum should match the optimum at least as often as
	// constant time on these small instances.
	ct, lm := res.Rows[0], res.Rows[1]
	if lm.ExactOptimal < ct.ExactOptimal {
		t.Logf("note: LM optimal %d < CT optimal %d", lm.ExactOptimal, ct.ExactOptimal)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "policy ablation") {
		t.Fatal("render missing title")
	}
}
