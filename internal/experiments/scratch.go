package experiments

import (
	"fmt"
	"io"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/inplace"
	"ipdelta/internal/stats"
)

// ScratchRow is one budget point on the scratch/compression trade-off
// curve.
type ScratchRow struct {
	// Budget is the scratch allowance as a fraction of the version size.
	Budget float64
	// DeltaBytes is the total encoded size at this budget.
	DeltaBytes int64
	// Compression is delta bytes / version bytes.
	Compression float64
	// Stashed and Converted count what happened to cycle victims.
	Stashed   int
	Converted int
	// ScratchUsed is the actual scratch consumed.
	ScratchUsed int64
}

// ScratchResult is the E12 experiment (extension): the trade-off between
// device scratch memory and compression lost to cycle breaking. Budget 0
// is the paper's pure in-place algorithm; as the budget grows, converted
// adds turn into stashes until the cycle loss vanishes — quantifying what
// a few kilobytes of RAM buy.
type ScratchResult struct {
	Rows         []ScratchRow
	VersionBytes int64
}

// RunScratch sweeps scratch budgets over the corpus, on the paper's
// whole-copy conversion (inplace.StrategyDFS) so budget 0 is the paper.
func RunScratch(pairs []corpus.Pair, algo diff.Algorithm, budgets []float64) (*ScratchResult, error) {
	res := &ScratchResult{}
	for _, p := range pairs {
		res.VersionBytes += int64(len(p.Version))
	}
	for _, b := range budgets {
		row := ScratchRow{Budget: b}
		for _, p := range pairs {
			d, err := algo.Diff(p.Ref, p.Version)
			if err != nil {
				return nil, err
			}
			budget := int64(float64(len(p.Version)) * b)
			ip, st, err := inplace.Convert(d, p.Ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithScratchBudget(budget))
			if err != nil {
				return nil, fmt.Errorf("scratch %s @%.3f: %w", p.Name, b, err)
			}
			n, err := codec.EncodedSize(ip, codec.FormatScratch)
			if err != nil {
				return nil, err
			}
			row.DeltaBytes += n
			row.Stashed += st.StashedCopies
			row.Converted += st.ConvertedCopies
			row.ScratchUsed += st.ScratchUsed
		}
		row.Compression = float64(row.DeltaBytes) / float64(res.VersionBytes)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the trade-off curve.
func (r *ScratchResult) Render(w io.Writer) error {
	t := stats.Table{
		Title:   "E12 — bounded-scratch trade-off: device memory vs compression loss",
		Headers: []string{"scratch budget", "delta bytes", "compression", "stashed", "converted to adds", "scratch used"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			stats.Pct(row.Budget)+" of version",
			stats.Bytes(row.DeltaBytes),
			stats.Pct(row.Compression),
			fmt.Sprintf("%d", row.Stashed),
			fmt.Sprintf("%d", row.Converted),
			stats.Bytes(row.ScratchUsed),
		)
	}
	return t.Render(w)
}
