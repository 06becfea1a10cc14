package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline serializes a document with the given results to a temp file.
func writeBaseline(t *testing.T, dir, name string, results []baselineResult) string {
	t.Helper()
	doc := &baselineDoc{Results: results}
	doc.Environment.NumCPU = 4
	doc.Environment.GOMAXPROCS = 4
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareCleanPass(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "convert/reuse", NsPerOp: 500, AllocsPerOp: 0},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1050, AllocsPerOp: 2}, // +5%, inside threshold
		{Name: "convert/reuse", NsPerOp: 480, AllocsPerOp: 0},
		{Name: "diff/full/1MiB", NsPerOp: 300, AllocsPerOp: 3}, // new row, ignored
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err != nil {
		t.Fatalf("clean compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "2 compared, 0 regressed") {
		t.Fatalf("unexpected summary:\n%s", buf.String())
	}
}

func TestCompareDetectsSlowdown(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1500, AllocsPerOp: 2}, // +50%
	})
	var buf bytes.Buffer
	err := runCompare(&buf, oldPath, newPath, 0.25)
	var reg errRegression
	if !errors.As(err, &reg) || reg.n != 1 {
		t.Fatalf("want 1 regression, got err=%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Fatalf("table missing verdict:\n%s", buf.String())
	}
}

func TestCompareDetectsNewAllocations(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "convert/reuse", NsPerOp: 500, AllocsPerOp: 0},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		// Faster, but a zero-alloc benchmark started allocating: still red.
		{Name: "convert/reuse", NsPerOp: 400, AllocsPerOp: 3},
	})
	var buf bytes.Buffer
	err := runCompare(&buf, oldPath, newPath, 0.25)
	var reg errRegression
	if !errors.As(err, &reg) {
		t.Fatalf("alloc growth not flagged: err=%v\n%s", err, buf.String())
	}
}

// TestCompareToleratesNewRows pins the new-row behavior: benchmarks that
// exist only in the new document (added since the baseline was committed)
// are reported as "new row" and never fail the comparison — even when
// the shared rows are at the edge of the threshold.
func TestCompareToleratesNewRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "recipe/diff/16MiB", NsPerOp: 700, AllocsPerOp: 9},
		{Name: "chunk/split/16MiB", NsPerOp: 300, AllocsPerOp: 0},
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err != nil {
		t.Fatalf("new rows must not fail compare: %v\n%s", err, buf.String())
	}
	outStr := buf.String()
	if !strings.Contains(outStr, "1 compared, 0 regressed, 2 new") {
		t.Fatalf("unexpected summary:\n%s", outStr)
	}
	if !strings.Contains(outStr, "new row (no old measurement)") {
		t.Fatalf("new-row verdict missing:\n%s", outStr)
	}
}

func TestCompareNoSharedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "a", NsPerOp: 1},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "b", NsPerOp: 1},
	})
	var buf bytes.Buffer
	if err := runCompare(&buf, oldPath, newPath, 0.25); err == nil {
		t.Fatal("disjoint documents must not pass silently")
	}
}

func TestCompareMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := runCompare(&buf, "/definitely/missing.json", "/also/missing.json", 0.25); err == nil {
		t.Fatal("missing baseline must error")
	}
}

func TestCompareViaRun(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1000},
	})
	newPath := writeBaseline(t, dir, "new.json", []baselineResult{
		{Name: "diff/one-shot", NsPerOp: 1001},
	})
	if err := run([]string{"-compare", oldPath, "-compare-to", newPath}); err != nil {
		t.Fatal(err)
	}
}
