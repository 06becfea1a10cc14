package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipdelta/internal/obs"
)

func TestRunQuickExperiments(t *testing.T) {
	// Each experiment flag on the small corpus; output goes to stdout.
	for _, args := range [][]string{
		{"-quick", "-table1"},
		{"-quick", "-timing"},
		{"-quick", "-fig2"},
		{"-quick", "-fig3"},
		{"-quick", "-transfer"},
		{"-quick", "-codewords"},
		{"-quick", "-policies"},
		{"-quick", "-strategies"},
		{"-quick", "-composition"},
		{"-quick", "-algorithms"},
		{"-quick", "-fleet"},
		{"-quick", "-scratch"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	// JSON mode must run cleanly for a couple of representative results.
	if err := run([]string{"-quick", "-json", "-fig3", "-policies"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCorpusDirErrors(t *testing.T) {
	if err := run([]string{"-corpus-dir", "/definitely/missing", "-table1"}); err == nil {
		t.Fatal("missing corpus dir accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunBenchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline measurement is slow")
	}
	out := filepath.Join(t.TempDir(), "BENCH_convert.json")
	if err := run([]string{"-quick", "-bench-baseline", "-baseline-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc baselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("baseline output is not valid JSON: %v", err)
	}
	checkStageUnits(t, &doc)
	want := map[string]bool{
		"convert/one-shot": false, "convert/reuse": false, "crwi/build": false,
		"diff/one-shot": false, "store/inplace/chunked/16MiB": false,
	}
	for _, label := range []string{"1MiB", "16MiB"} {
		for _, row := range []string{"chunk/split/", "chunk/ingest/", "chunk/ingest/repeat/", "chunk/ingest/like/", "chunk/materialize/", "recipe/diff/", "diff/full/"} {
			want[row+label] = false
		}
	}
	for _, r := range doc.Results {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.Iters <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: empty measurement: %+v", r.Name, r)
		}
		if (strings.HasPrefix(r.Name, "diff/") || strings.HasPrefix(r.Name, "recipe/diff/")) && r.DeltaBytes <= 0 {
			t.Errorf("%s: diff row records no delta size: %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("baseline missing benchmark %q", name)
		}
	}
	if err := run([]string{"-bench-baseline", "-baseline-out", "/definitely/missing/dir/out.json", "-quick"}); err == nil {
		t.Error("unwritable baseline path accepted")
	}
}

// checkStageUnits fails the test if a stage entry, whose fields are in
// nanoseconds, carries a histogram not named *_nanos.
func checkStageUnits(t *testing.T, doc *baselineDoc) {
	t.Helper()
	for _, st := range doc.Stages {
		if base, _, _ := strings.Cut(st.Name, "{"); !strings.HasSuffix(base, "_nanos") {
			t.Errorf("stage %q is not a _nanos timer but is reported in mean_nanos", st.Name)
		}
	}
}

func TestBaselineStagesAreNanos(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Stage("x_stage_nanos").Start().End()
	reg.Stage(`x_policy_nanos{policy="lm"}`).Start().End()
	sizes := reg.Histogram("x_size_bytes", obs.SizeBuckets)
	sizes.Observe(100)
	sizes.Observe(300)
	doc := &baselineDoc{}
	doc.addRegistry(reg)
	checkStageUnits(t, doc)
	if len(doc.Stages) != 2 {
		t.Errorf("stages = %+v, want the two _nanos timers", doc.Stages)
	}
	want := baselineHistogram{Name: "x_size_bytes", Count: 2, Mean: 200, Sum: 400}
	if len(doc.Histograms) != 1 || doc.Histograms[0] != want {
		t.Errorf("histograms = %+v, want [%+v]", doc.Histograms, want)
	}

	// The committed baseline follows the same split.
	committed, err := loadBaseline(filepath.Join("..", "..", "BENCH_convert.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkStageUnits(t, committed)
}
