package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/stats"
)

// Fig2Row is one depth of the Figure 2 adversarial-tree experiment.
type Fig2Row struct {
	Depth  int
	Leaves int
	// Converted bytes (compression lost to cycle breaking) per policy and
	// for the globally optimal deletion (the root).
	LMBytes, CTBytes, OptimalBytes int64
	// LMOverOptimal is the cost ratio showing locally-minimum growing
	// arbitrarily worse with depth.
	LMOverOptimal float64
}

// Fig2Result drives the Figure 2 adversarial construction end to end: the
// delta is built as real commands, converted under both policies of the
// paper's algorithm (inplace.StrategyDFS), and the
// bytes converted to adds are compared against the optimal (root-only)
// deletion.
type Fig2Result struct {
	LeafLen int
	Rows    []Fig2Row
}

// RunFig2 evaluates the adversarial tree for each depth.
func RunFig2(depths []int, leafLen int) (*Fig2Result, error) {
	res := &Fig2Result{LeafLen: leafLen}
	for _, depth := range depths {
		d := inplace.AdversarialDelta(depth, leafLen)
		ref := make([]byte, d.RefLen)
		rng := rand.New(rand.NewSource(int64(depth)))
		rng.Read(ref)

		_, lm, err := inplace.Convert(d, ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.LocallyMinimum{}))
		if err != nil {
			return nil, fmt.Errorf("fig2 depth %d: %w", depth, err)
		}
		_, ct, err := inplace.Convert(d, ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.ConstantTime{}))
		if err != nil {
			return nil, fmt.Errorf("fig2 depth %d: %w", depth, err)
		}
		// By construction the optimal deletion is the root alone, whose
		// copy carries 2·leafLen bytes (verified against the exhaustive
		// search in the package tests).
		optimal := int64(2 * leafLen)
		row := Fig2Row{
			Depth:        depth,
			Leaves:       1 << depth,
			LMBytes:      lm.ConvertedBytes,
			CTBytes:      ct.ConvertedBytes,
			OptimalBytes: optimal,
		}
		row.LMOverOptimal = float64(row.LMBytes) / float64(optimal)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the Figure 2 experiment.
func (r *Fig2Result) Render(w io.Writer) error {
	t := stats.Table{
		Title:   fmt.Sprintf("Figure 2 — adversarial CRWI tree, locally-minimum vs optimal (leaf copies of %dB)", r.LeafLen),
		Headers: []string{"depth", "leaves", "LM bytes converted", "CT bytes converted", "optimal bytes", "LM/optimal"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Depth),
			fmt.Sprintf("%d", row.Leaves),
			fmt.Sprintf("%d", row.LMBytes),
			fmt.Sprintf("%d", row.CTBytes),
			fmt.Sprintf("%d", row.OptimalBytes),
			fmt.Sprintf("%.1f×", row.LMOverOptimal),
		)
	}
	return t.Render(w)
}

// Fig3Row is one file size of the Figure 3 / Lemma 1 edge-bound experiment.
type Fig3Row struct {
	B      int   // block count √L
	L      int64 // file length
	Copies int   // |C| = 2b−1
	Edges  int   // CRWI digraph edges
	// EdgesOverC2 shows Θ(|C|²) growth; EdgesOverL shows the Lemma 1 bound
	// edges ≤ L.
	EdgesOverC2 float64
	EdgesOverL  float64
	BoundOK     bool
}

// Fig3Result drives the quadratic-edge construction of §6.
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 builds the Figure 3 delta for each block count and measures the
// CRWI digraph the converter constructs.
func RunFig3(blockCounts []int) (*Fig3Result, error) {
	res := &Fig3Result{}
	for _, b := range blockCounts {
		d := inplace.QuadraticDelta(b)
		ref := make([]byte, d.RefLen)
		_, st, err := inplace.Convert(d, ref)
		if err != nil {
			return nil, fmt.Errorf("fig3 b=%d: %w", b, err)
		}
		c := float64(st.Copies)
		row := Fig3Row{
			B:           b,
			L:           d.VersionLen,
			Copies:      st.Copies,
			Edges:       st.Edges,
			EdgesOverC2: float64(st.Edges) / (c * c),
			EdgesOverL:  float64(st.Edges) / float64(d.VersionLen),
			BoundOK:     int64(st.Edges) <= d.VersionLen,
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the Figure 3 experiment.
func (r *Fig3Result) Render(w io.Writer) error {
	t := stats.Table{
		Title:   "Figure 3 / §6 — CRWI digraph size: Θ(|C|²) edges, bounded by L (Lemma 1)",
		Headers: []string{"b=√L", "L", "copies |C|", "edges", "edges/|C|²", "edges/L", "≤L"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.B),
			fmt.Sprintf("%d", row.L),
			fmt.Sprintf("%d", row.Copies),
			fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.3f", row.EdgesOverC2),
			fmt.Sprintf("%.3f", row.EdgesOverL),
			fmt.Sprintf("%v", row.BoundOK),
		)
	}
	return t.Render(w)
}
