package experiments

import (
	"fmt"
	"io"
	"time"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/stats"
)

// TimingResult reproduces the §7 run-time comparison: the paper reports
// that in-place conversion completed in 56% of the time delta compression
// took, exceeded it on only 0.1% of inputs, and that the locally-minimum
// policy is on average as fast as constant-time.
type TimingResult struct {
	Pairs          int
	DiffTotal      time.Duration
	ConvertLM      time.Duration
	ConvertCT      time.Duration
	RatioLMMean    float64 // per-pair mean of convert(LM)/diff
	RatioCTMean    float64
	SlowerThanDiff int // pairs where LM conversion took longer than diff
	// Adversarial timings: the paper notes the locally-minimum policy can
	// run up to ~25% slower than constant-time on inputs with many long
	// cycles; the Figure 2 tree is exactly such an input.
	AdversarialLM time.Duration
	AdversarialCT time.Duration
}

// RunTiming measures differencing time against the paper's in-place
// conversion (inplace.StrategyDFS) time per corpus pair.
func RunTiming(pairs []corpus.Pair, algo diff.Algorithm) (*TimingResult, error) {
	res := &TimingResult{Pairs: len(pairs)}
	var ratioLM, ratioCT stats.Aggregate
	for _, p := range pairs {
		start := time.Now()
		d, err := algo.Diff(p.Ref, p.Version)
		if err != nil {
			return nil, err
		}
		diffTime := time.Since(start)

		start = time.Now()
		if _, _, err := inplace.Convert(d, p.Ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.LocallyMinimum{})); err != nil {
			return nil, err
		}
		lmTime := time.Since(start)

		start = time.Now()
		if _, _, err := inplace.Convert(d, p.Ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.ConstantTime{})); err != nil {
			return nil, err
		}
		ctTime := time.Since(start)

		res.DiffTotal += diffTime
		res.ConvertLM += lmTime
		res.ConvertCT += ctTime
		if diffTime > 0 {
			ratioLM.Add(float64(lmTime) / float64(diffTime))
			ratioCT.Add(float64(ctTime) / float64(diffTime))
		}
		if lmTime > diffTime {
			res.SlowerThanDiff++
		}
	}
	res.RatioLMMean = ratioLM.Mean()
	res.RatioCTMean = ratioCT.Mean()

	// Cycle-heavy adversarial input: deep Figure 2 tree.
	tree := inplace.AdversarialDelta(12, 32)
	ref := make([]byte, tree.RefLen)
	start := time.Now()
	if _, _, err := inplace.Convert(tree, ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.LocallyMinimum{})); err != nil {
		return nil, err
	}
	res.AdversarialLM = time.Since(start)
	start = time.Now()
	if _, _, err := inplace.Convert(tree, ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.ConstantTime{})); err != nil {
		return nil, err
	}
	res.AdversarialCT = time.Since(start)
	return res, nil
}

// Render prints the timing comparison.
func (r *TimingResult) Render(w io.Writer) error {
	t := stats.Table{
		Title:   fmt.Sprintf("§7 run time — delta compression vs in-place conversion (%d pairs)", r.Pairs),
		Headers: []string{"phase", "total time", "fraction of diff time"},
	}
	frac := func(d time.Duration) string {
		if r.DiffTotal == 0 {
			return "-"
		}
		return stats.Pct(float64(d) / float64(r.DiffTotal))
	}
	t.AddRow("delta compression (linear diff)", r.DiffTotal.String(), "100.0%")
	t.AddRow("in-place conversion (locally minimum)", r.ConvertLM.String(), frac(r.ConvertLM))
	t.AddRow("in-place conversion (constant time)", r.ConvertCT.String(), frac(r.ConvertCT))
	if err := t.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"per-pair mean conversion/diff ratio: locally-minimum %.2f, constant-time %.2f; conversion slower than diff on %d/%d pairs\n",
		r.RatioLMMean, r.RatioCTMean, r.SlowerThanDiff, r.Pairs); err != nil {
		return err
	}
	ratio := 0.0
	if r.AdversarialCT > 0 {
		ratio = float64(r.AdversarialLM)/float64(r.AdversarialCT) - 1
	}
	_, err := fmt.Fprintf(w,
		"cycle-heavy adversarial input (Figure 2 tree): locally-minimum %v vs constant-time %v (%+.0f%%)\n",
		r.AdversarialLM.Round(time.Microsecond), r.AdversarialCT.Round(time.Microsecond), ratio*100)
	return err
}
