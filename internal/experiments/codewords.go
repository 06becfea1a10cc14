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

// CodewordRow is one wire format in the codeword ablation.
type CodewordRow struct {
	Format      codec.Format
	Bytes       int64
	Compression float64
	// InPlace marks formats that can carry in-place deltas; those rows
	// encode the converted delta, the others the raw write-ordered one.
	InPlace bool
}

// CodewordResult reproduces the §7 codeword discussion: the legacy
// single-byte-add codewords are cheap in write order but pay dearly for
// explicit write offsets, and the redesigned compact format recovers most
// of that — the improvement the paper leaves as future work.
type CodewordResult struct {
	Rows         []CodewordRow
	VersionBytes int64
}

// RunCodewords encodes the corpus deltas in every format; the in-place
// rows encode the paper's conversion (inplace.StrategyDFS).
func RunCodewords(pairs []corpus.Pair, algo diff.Algorithm) (*CodewordResult, error) {
	formats := []codec.Format{
		codec.FormatLegacyOrdered,
		codec.FormatOrdered,
		codec.FormatLegacyOffsets,
		codec.FormatOffsets,
		codec.FormatCompact,
	}
	totals := make(map[codec.Format]int64, len(formats))
	res := &CodewordResult{}
	for _, p := range pairs {
		d, err := algo.Diff(p.Ref, p.Version)
		if err != nil {
			return nil, err
		}
		ip, _, err := inplace.Convert(d, p.Ref, inplace.WithStrategy(inplace.StrategyDFS))
		if err != nil {
			return nil, err
		}
		res.VersionBytes += int64(len(p.Version))
		for _, f := range formats {
			src := d
			if f.InPlaceCapable() {
				src = ip
			}
			n, err := codec.EncodedSize(src, f)
			if err != nil {
				return nil, fmt.Errorf("codewords %s %v: %w", p.Name, f, err)
			}
			totals[f] += n
		}
	}
	for _, f := range formats {
		res.Rows = append(res.Rows, CodewordRow{
			Format:      f,
			Bytes:       totals[f],
			Compression: float64(totals[f]) / float64(res.VersionBytes),
			InPlace:     f.InPlaceCapable(),
		})
	}
	return res, nil
}

// Render prints the ablation.
func (r *CodewordResult) Render(w io.Writer) error {
	t := stats.Table{
		Title:   "§7 codeword ablation — wire formats over the Table 1 corpus",
		Headers: []string{"format", "in-place capable", "delta bytes", "compression"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Format.String(),
			fmt.Sprintf("%v", row.InPlace),
			stats.Bytes(row.Bytes),
			stats.Pct(row.Compression),
		)
	}
	return t.Render(w)
}
