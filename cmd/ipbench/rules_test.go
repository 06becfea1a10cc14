package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadBaseline parses one baseline document.
func loadBaseline(path string) (*baselineDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &baselineDoc{}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// passingDoc returns a document with one row per row the rule table
// names, each satisfying every rule on it: no allocations, one percent
// adds, and base rows ten times slower than the rows that must beat them.
func passingDoc() *baselineDoc {
	bases := map[string]bool{}
	for _, r := range baselineRules {
		if r.kind == minSpeedup {
			bases[r.base] = true
		}
	}
	seen := map[string]bool{}
	doc := &baselineDoc{}
	for _, r := range baselineRules {
		for _, name := range []string{r.row, r.base} {
			if name == "" || seen[name] {
				continue
			}
			seen[name] = true
			ns := 100.0
			if bases[name] {
				ns = 1000
			}
			doc.Results = append(doc.Results, baselineResult{Name: name, Iters: 1, NsPerOp: ns, DeltaBytes: 100, AddPct: 1})
		}
	}
	return doc
}

// editRow applies fn to the named row of doc.
func editRow(doc *baselineDoc, name string, fn func(*baselineResult)) {
	for i := range doc.Results {
		if doc.Results[i].Name == name {
			fn(&doc.Results[i])
		}
	}
}

// firstRule returns the first rule of the given kind.
func firstRule(t *testing.T, kind ruleKind) rule {
	t.Helper()
	for _, r := range baselineRules {
		if r.kind == kind {
			return r
		}
	}
	t.Fatalf("no rule of kind %d in the table", kind)
	return rule{}
}

// expectBroken checks doc against the rule table: with broke nil the
// document must pass, otherwise it must fail and the error must name each
// rule in broke.
func expectBroken(t *testing.T, doc *baselineDoc, rules []rule, broke []rule) {
	t.Helper()
	err := checkRules(io.Discard, doc, rules, false)
	if broke == nil {
		if err != nil {
			t.Fatalf("passing document failed: %v", err)
		}
		return
	}
	if err == nil {
		t.Fatal("broken document passed every rule")
	}
	for _, r := range broke {
		if !strings.Contains(err.Error(), r.String()) {
			t.Errorf("error does not name rule %q:\n%v", r, err)
		}
	}
}

// TestCompareCleanPass: a document that meets every rule passes.
func TestCompareCleanPass(t *testing.T) {
	expectBroken(t, passingDoc(), baselineRules, nil)
}

// TestCompareDetectsNewAllocations: a zero-alloc row that starts
// allocating fails its rule, however fast it got.
func TestCompareDetectsNewAllocations(t *testing.T) {
	allocs := firstRule(t, maxAllocs)
	if allocs.bound != 0 {
		t.Fatalf("first alloc rule %q is not a zero-alloc rule", allocs)
	}
	doc := passingDoc()
	editRow(doc, allocs.row, func(r *baselineResult) { r.AllocsPerOp, r.NsPerOp = 3, 1 })
	expectBroken(t, doc, baselineRules, []rule{allocs})
}

// TestRulesSkipAllocationsUnderRace: with allocation rules skipped, as a
// race-instrumented run reports them, a document that breaks every
// allocation rule passes, each allocation rule is reported as skipped,
// and the other rules are still evaluated.
func TestRulesSkipAllocationsUnderRace(t *testing.T) {
	doc := passingDoc()
	allocRules := 0
	for _, r := range baselineRules {
		if r.kind == maxAllocs {
			allocRules++
			editRow(doc, r.row, func(res *baselineResult) { res.AllocsPerOp = 1000 })
		}
	}
	var out strings.Builder
	if err := checkRules(&out, doc, baselineRules, true); err != nil {
		t.Fatalf("allocation rules were evaluated: %v", err)
	}
	if got := strings.Count(out.String(), "skipped"); got != allocRules {
		t.Fatalf("%d rules reported skipped, want the %d allocation rules:\n%s", got, allocRules, out.String())
	}
	if got := strings.Count(out.String(), " ok\n"); got != len(baselineRules)-allocRules {
		t.Fatalf("%d rules evaluated, want %d:\n%s", got, len(baselineRules)-allocRules, out.String())
	}
	adds := firstRule(t, maxAddPct)
	editRow(doc, adds.row, func(r *baselineResult) { r.AddPct = adds.bound + 1 })
	if err := checkRules(io.Discard, doc, baselineRules, true); err == nil || !strings.Contains(err.Error(), adds.String()) {
		t.Fatalf("broken add rule with allocation rules skipped: %v", err)
	}
}

// TestRunRecipeGate: the chunked recipe differ must beat the full differ
// at 16 MiB by the table's bound; a run under it fails, and so does an
// unreachable bound.
func TestRunRecipeGate(t *testing.T) {
	speed := firstRule(t, minSpeedup)
	if speed.row != "recipe/diff/16MiB" || speed.base != "diff/full/16MiB" || speed.bound < 2 {
		t.Fatalf("recipe gate rule is %q, want recipe/diff/16MiB >= 2x diff/full/16MiB", speed)
	}
	doc := passingDoc()
	editRow(doc, speed.row, func(r *baselineResult) { r.NsPerOp = 1000 / (speed.bound * 0.9) })
	expectBroken(t, doc, baselineRules, []rule{speed})

	absurd := speed
	absurd.bound = 1e9
	expectBroken(t, passingDoc(), []rule{absurd}, []rule{absurd})
}

// TestBaselineRules covers the failures the named tests above do not: too
// many adds, a diff row without a delta, and a rule whose row is missing.
func TestBaselineRules(t *testing.T) {
	allocs := firstRule(t, maxAllocs)
	speed := firstRule(t, minSpeedup)
	adds := firstRule(t, maxAddPct)
	for _, tc := range []struct {
		name  string
		edit  func(*baselineDoc)
		broke []rule
	}{
		{name: "too many adds", broke: []rule{adds}, edit: func(d *baselineDoc) {
			editRow(d, adds.row, func(r *baselineResult) { r.AddPct = adds.bound + 0.01 })
		}},
		{name: "no delta recorded", broke: []rule{adds}, edit: func(d *baselineDoc) {
			editRow(d, adds.row, func(r *baselineResult) { r.DeltaBytes, r.AddPct = 0, 0 })
		}},
		{name: "row missing", broke: []rule{allocs}, edit: func(d *baselineDoc) {
			editRow(d, allocs.row, func(r *baselineResult) { r.Name += "-renamed" })
		}},
		{name: "base row missing", broke: []rule{speed}, edit: func(d *baselineDoc) {
			editRow(d, speed.base, func(r *baselineResult) { r.Name += "-renamed" })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := passingDoc()
			tc.edit(doc)
			expectBroken(t, doc, baselineRules, tc.broke)
		})
	}
}

func TestCommittedBaselinePassesRules(t *testing.T) {
	doc, err := loadBaseline(filepath.Join("..", "..", "BENCH_convert.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRules(io.Discard, doc, baselineRules, false); err != nil {
		t.Fatal(err)
	}
}
