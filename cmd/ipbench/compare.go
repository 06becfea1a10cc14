package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The regression-compare mode (-compare OLD) reads two baseline documents —
// the committed one and a freshly generated one — and fails (non-zero exit)
// when any shared benchmark slowed down by more than the threshold. CI runs
// it after -bench-baseline so perf regressions surface as red builds rather
// than silently drifting numbers in BENCH_convert.json.

// errRegression marks threshold violations so main can exit non-zero
// without re-printing the table.
type errRegression struct{ n int }

func (e errRegression) Error() string {
	return fmt.Sprintf("%d benchmark(s) regressed past threshold", e.n)
}

// loadBaseline parses one baseline document.
func loadBaseline(path string) (*baselineDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	doc := &baselineDoc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	return doc, nil
}

// runCompare renders an old-vs-new table over the benchmarks present in
// both documents and returns errRegression when any slows down by more than
// threshold (a ratio: 0.10 allows 10% more ns/op). Allocation-count growth
// on a zero-alloc benchmark is always a regression — those gates are exact.
func runCompare(out io.Writer, oldPath, newPath string, threshold float64) error {
	oldDoc, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]baselineResult, len(oldDoc.Results))
	for _, r := range oldDoc.Results {
		oldBy[r.Name] = r
	}

	// The environments lead the table: timings are meaningless without
	// knowing the machine each run had.
	fmt.Fprintf(out, "old: %d CPU / GOMAXPROCS %d (%s)\nnew: %d CPU / GOMAXPROCS %d (%s)\n",
		oldDoc.Environment.NumCPU, oldDoc.Environment.GOMAXPROCS, oldDoc.Environment.GoVersion,
		newDoc.Environment.NumCPU, newDoc.Environment.GOMAXPROCS, newDoc.Environment.GoVersion)
	if oldDoc.Environment.NumCPU != newDoc.Environment.NumCPU ||
		oldDoc.Environment.GOMAXPROCS != newDoc.Environment.GOMAXPROCS {
		fmt.Fprintf(out, "note: environments differ; timings are not directly comparable\n")
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "%-22s %14s %14s %8s %10s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs", "verdict")
	regressions := 0
	compared := 0
	newRows := 0
	for _, nr := range newDoc.Results {
		or, ok := oldBy[nr.Name]
		if !ok {
			// A benchmark added since the old baseline was committed has
			// nothing to regress against: report it, don't fail on it.
			newRows++
			fmt.Fprintf(out, "%-22s %14s %14.0f %8s %10s  %s\n",
				nr.Name, "-", nr.NsPerOp, "-", "-", "new row (no old measurement)")
			continue
		}
		if or.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := nr.NsPerOp/or.NsPerOp - 1
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSED"
			regressions++
		}
		allocNote := fmt.Sprintf("%d->%d", or.AllocsPerOp, nr.AllocsPerOp)
		if or.AllocsPerOp == 0 && nr.AllocsPerOp > 0 {
			verdict = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(out, "%-22s %14.0f %14.0f %+7.1f%% %10s  %s\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, ratio*100, allocNote, verdict)
	}
	// New rows alone are not enough: a document sharing zero benchmarks
	// with the baseline is almost certainly the wrong file, not progress.
	if compared == 0 {
		return fmt.Errorf("compare: no shared benchmarks between %s and %s", oldPath, newPath)
	}
	fmt.Fprintf(out, "\n%d compared, %d regressed, %d new (threshold %+.0f%%)\n",
		compared, regressions, newRows, threshold*100)
	if regressions > 0 {
		return errRegression{n: regressions}
	}
	return nil
}
