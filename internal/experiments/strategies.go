package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/stats"
)

// StrategyRow is one cycle-breaking configuration in the strategy ablation.
type StrategyRow struct {
	Name string
	// CorpusBytes is the total data converted from copies to adds over the
	// corpus — lower is better.
	CorpusBytes int64
	// CorpusConversions counts converted copies over the corpus.
	CorpusConversions int
	// TreeBytes is the bytes converted on the Figure 2 adversarial tree.
	TreeBytes int64
}

// StrategyResult is the E8 ablation (beyond the paper): the paper's two
// DFS-embedded policies against conflict-boundary splitting, on both the
// realistic corpus and the adversarial tree. Splitting converts fewer
// bytes on both; the tree's optimum is E3's.
type StrategyResult struct {
	Rows      []StrategyRow
	TreeDepth int
}

// RunStrategies measures all three cycle-breaking configurations.
func RunStrategies(pairs []corpus.Pair, algo diff.Algorithm, treeDepth, leafLen int) (*StrategyResult, error) {
	configs := []struct {
		name string
		opts []inplace.Option
	}{
		{"dfs/locally-minimum", []inplace.Option{inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.LocallyMinimum{})}},
		{"dfs/constant-time", []inplace.Option{inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.ConstantTime{})}},
		{"split/locally-minimum", []inplace.Option{inplace.WithStrategy(inplace.StrategySplit), inplace.WithPolicy(graph.LocallyMinimum{})}},
	}
	res := &StrategyResult{TreeDepth: treeDepth}
	tree := inplace.AdversarialDelta(treeDepth, leafLen)
	ref := make([]byte, tree.RefLen)
	rand.New(rand.NewSource(42)).Read(ref)

	for _, cfg := range configs {
		row := StrategyRow{Name: cfg.name}
		for _, p := range pairs {
			d, err := algo.Diff(p.Ref, p.Version)
			if err != nil {
				return nil, err
			}
			_, st, err := inplace.Convert(d, p.Ref, cfg.opts...)
			if err != nil {
				return nil, fmt.Errorf("strategy %s on %s: %w", cfg.name, p.Name, err)
			}
			row.CorpusBytes += st.ConvertedBytes
			row.CorpusConversions += st.ConvertedCopies
		}
		_, st, err := inplace.Convert(tree, ref, cfg.opts...)
		if err != nil {
			return nil, err
		}
		row.TreeBytes = st.ConvertedBytes
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the strategy ablation.
func (r *StrategyResult) Render(w io.Writer) error {
	t := stats.Table{
		Title: fmt.Sprintf("E8 — cycle-breaking strategy ablation (corpus + Figure 2 tree, depth %d)", r.TreeDepth),
		Headers: []string{
			"strategy", "corpus bytes converted", "corpus copies converted", "adversarial-tree bytes",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Name,
			stats.Bytes(row.CorpusBytes),
			fmt.Sprintf("%d", row.CorpusConversions),
			stats.Bytes(row.TreeBytes),
		)
	}
	return t.Render(w)
}
