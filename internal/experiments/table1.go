// Package experiments implements one driver per table and figure of the
// paper's evaluation (§5–§7), shared by the ipbench command and the
// repository's benchmarks. Each driver returns a structured result with a
// Render method that prints rows shaped like the paper's.
package experiments

import (
	"fmt"
	"io"

	"ipdelta/internal/codec"
	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
	"ipdelta/internal/inplace"
	"ipdelta/internal/stats"
)

// Table1Row is one column of the paper's Table 1 (transposed into rows):
// a delta variant with its compression ratio and loss decomposition.
type Table1Row struct {
	Variant string
	// Compression is total delta bytes / total version bytes (the paper
	// reports 15.3% / 17.2% / 17.7% / 21.2%).
	Compression float64
	// EncodingLoss is the compression given up to explicit write offsets.
	EncodingLoss float64
	// CycleLoss is the compression given up to converting copies to adds.
	CycleLoss float64
	// TotalLoss is the loss relative to the ordered-format delta.
	TotalLoss float64
}

// Table1Result reproduces Table 1 over a corpus.
type Table1Result struct {
	Rows  []Table1Row
	Pairs int
	// VersionBytes is the total uncompressed version size.
	VersionBytes int64
	// ConvertedLM / ConvertedCT count copies converted to adds by policy.
	ConvertedLM int
	ConvertedCT int
	// CyclesLM counts cycles broken under the locally-minimum policy.
	CyclesLM int
	// Split is the extension beyond the paper's four variants: the
	// default conversion, which splits copies at conflict boundaries
	// (inplace.StrategySplit, locally-minimum policy). It is kept out of
	// Rows so Rows stays the paper's Table 1.
	Split Table1Row
	// ConvertedSplit counts the adds the split conversion made from copy
	// data (whole copies or runs of pieces).
	ConvertedSplit int
}

// RunTable1 measures the four delta variants of Table 1 over the corpus:
// the ordered delta without write offsets, the same commands with explicit
// write offsets, and the in-place converted delta under each cycle-breaking
// policy of the paper's algorithm (inplace.StrategyDFS). It also measures
// the default split conversion, reported apart from the paper's rows.
func RunTable1(pairs []corpus.Pair, algo diff.Algorithm) (*Table1Result, error) {
	var versionBytes, ordered, offsets, lm, ct, split int64
	res := &Table1Result{Pairs: len(pairs)}
	for _, p := range pairs {
		d, err := algo.Diff(p.Ref, p.Version)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", p.Name, err)
		}
		so, err := codec.EncodedSize(d, codec.FormatOrdered)
		if err != nil {
			return nil, err
		}
		sw, err := codec.EncodedSize(d, codec.FormatOffsets)
		if err != nil {
			return nil, err
		}
		ipLM, stLM, err := inplace.Convert(d, p.Ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.LocallyMinimum{}))
		if err != nil {
			return nil, err
		}
		sLM, err := codec.EncodedSize(ipLM, codec.FormatOffsets)
		if err != nil {
			return nil, err
		}
		ipCT, stCT, err := inplace.Convert(d, p.Ref, inplace.WithStrategy(inplace.StrategyDFS), inplace.WithPolicy(graph.ConstantTime{}))
		if err != nil {
			return nil, err
		}
		sCT, err := codec.EncodedSize(ipCT, codec.FormatOffsets)
		if err != nil {
			return nil, err
		}
		ipSplit, stSplit, err := inplace.Convert(d, p.Ref, inplace.WithPolicy(graph.LocallyMinimum{}))
		if err != nil {
			return nil, err
		}
		sSplit, err := codec.EncodedSize(ipSplit, codec.FormatOffsets)
		if err != nil {
			return nil, err
		}
		versionBytes += int64(len(p.Version))
		ordered += so
		offsets += sw
		lm += sLM
		ct += sCT
		split += sSplit
		res.ConvertedSplit += stSplit.ConvertedCopies
		res.ConvertedLM += stLM.ConvertedCopies
		res.ConvertedCT += stCT.ConvertedCopies
		res.CyclesLM += stLM.CyclesBroken
	}
	res.VersionBytes = versionBytes
	compression := func(n int64) float64 { return float64(n) / float64(versionBytes) }
	cOrdered := compression(ordered)
	cOffsets := compression(offsets)
	cLM := compression(lm)
	cCT := compression(ct)
	res.Rows = []Table1Row{
		{Variant: "Δ compress, no write offsets", Compression: cOrdered},
		{
			Variant:      "Δ compress, write offsets",
			Compression:  cOffsets,
			EncodingLoss: cOffsets - cOrdered,
			TotalLoss:    cOffsets - cOrdered,
		},
		{
			Variant:      "in-place (locally minimum)",
			Compression:  cLM,
			EncodingLoss: cOffsets - cOrdered,
			CycleLoss:    cLM - cOffsets,
			TotalLoss:    cLM - cOrdered,
		},
		{
			Variant:      "in-place (constant time)",
			Compression:  cCT,
			EncodingLoss: cOffsets - cOrdered,
			CycleLoss:    cCT - cOffsets,
			TotalLoss:    cCT - cOrdered,
		},
	}
	cSplit := compression(split)
	res.Split = Table1Row{
		Variant:      "in-place (split at conflict boundaries, extension)",
		Compression:  cSplit,
		EncodingLoss: cOffsets - cOrdered,
		CycleLoss:    cSplit - cOffsets,
		TotalLoss:    cSplit - cOrdered,
	}
	return res, nil
}

// Render prints the result in the shape of the paper's Table 1.
func (r *Table1Result) Render(w io.Writer) error {
	t := stats.Table{
		Title: fmt.Sprintf("Table 1 — compression and in-place conversion loss (%d pairs, %s of version data)",
			r.Pairs, stats.Bytes(r.VersionBytes)),
		Headers: []string{"variant", "compression", "encoding loss", "loss from cycles", "total loss"},
	}
	for _, row := range append(r.Rows[:len(r.Rows):len(r.Rows)], r.Split) {
		enc, cyc, tot := "", "", ""
		if row.TotalLoss != 0 {
			enc = stats.Pct(row.EncodingLoss)
			tot = stats.Pct(row.TotalLoss)
		}
		if row.CycleLoss != 0 {
			cyc = stats.Pct(row.CycleLoss)
		}
		t.AddRow(row.Variant, stats.Pct(row.Compression), enc, cyc, tot)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "copies converted: locally-minimum %d, constant-time %d, split %d; cycles broken: %d\n",
		r.ConvertedLM, r.ConvertedCT, r.ConvertedSplit, r.CyclesLM)
	return err
}
