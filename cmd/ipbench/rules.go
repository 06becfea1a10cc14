package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"strings"
)

// The rule table every -bench-baseline run is checked against. Absolute
// ns/op depend on the host and stay informational; the rules use only what
// holds on any host: exact allocation counts, speed ratios between rows of
// the same run, and compression. A rule naming a row the run did not
// produce fails, so renaming a row cannot silently drop its gate.

// ruleKind selects what a rule bounds.
type ruleKind int

const (
	maxAllocs  ruleKind = iota // allocs/op of row ≤ bound
	minSpeedup                 // ns/op of base ÷ ns/op of row ≥ bound
	maxAddPct                  // add_pct of row ≤ bound
)

// rule is one line of the table.
type rule struct {
	kind  ruleKind
	row   string
	base  string // minSpeedup only: the row that row must beat
	bound float64
}

func (r rule) String() string {
	switch r.kind {
	case maxAllocs:
		return fmt.Sprintf("allocs/op %s <= %g", r.row, r.bound)
	case minSpeedup:
		return fmt.Sprintf("speed %s >= %gx %s", r.row, r.bound, r.base)
	default:
		return fmt.Sprintf("add_pct %s <= %g", r.row, r.bound)
	}
}

// baselineRules holds at the default seed in both quick and full mode.
// The recipe bound is the speedup the chunked fast path must deliver to
// pay for itself; the like bound, what predicting the unchanged 95% of a
// churned version from its predecessor's recipe must win over cutting
// and hashing it all. The zero-alloc rows are the steady-state reuse paths
// and the compact encode, which writes through a pooled writer and
// validates on a pooled Validator; the diff, decode and materialize rows
// allocate a fixed few buffers per call, the same count at GOMAXPROCS 1
// and 2: a pooled diff allocates only its caller-owned Delta, command
// slice and literal arena; a streaming decode, its Decoder. chunk/ingest and
// recipe/diff allocate per worker, so their counts follow GOMAXPROCS and
// get no rule. The add_pct bound catches a differencer whose compression
// collapses as the image grows.
var baselineRules = []rule{
	{kind: minSpeedup, row: "recipe/diff/16MiB", base: "diff/full/16MiB", bound: 2},
	{kind: minSpeedup, row: "chunk/ingest/like/16MiB", base: "chunk/ingest/repeat/16MiB", bound: 2},
	{kind: maxAllocs, row: "convert/reuse"},
	{kind: maxAllocs, row: "crwi/build"},
	{kind: maxAllocs, row: "chunk/split/1MiB"},
	{kind: maxAllocs, row: "chunk/split/16MiB"},
	{kind: maxAllocs, row: "diff/one-shot", bound: 3},
	{kind: maxAllocs, row: "diff/full/1MiB", bound: 3},
	{kind: maxAllocs, row: "diff/full/16MiB", bound: 3},
	{kind: maxAllocs, row: "codec/encode/compact"},
	{kind: maxAllocs, row: "codec/decode/stream", bound: 1},
	{kind: maxAllocs, row: "chunk/materialize/1MiB", bound: 2},
	{kind: maxAllocs, row: "chunk/materialize/16MiB", bound: 2},
	{kind: maxAddPct, row: "diff/full/1MiB", bound: 6},
	{kind: maxAddPct, row: "diff/full/16MiB", bound: 6},
	{kind: maxAddPct, row: "recipe/diff/1MiB", bound: 6},
	{kind: maxAddPct, row: "recipe/diff/16MiB", bound: 6},
}

// eval measures r against the rows and reports what it saw and whether
// the rule holds.
func (r rule) eval(rows map[string]baselineResult) (got string, ok bool) {
	res, found := rows[r.row]
	if !found {
		return "row " + r.row + " missing", false
	}
	switch r.kind {
	case maxAllocs:
		return fmt.Sprint(res.AllocsPerOp), float64(res.AllocsPerOp) <= r.bound
	case minSpeedup:
		base, found := rows[r.base]
		if !found {
			return "row " + r.base + " missing", false
		}
		speedup := base.NsPerOp / res.NsPerOp
		return fmt.Sprintf("%.2fx", speedup), speedup >= r.bound
	default:
		if res.DeltaBytes <= 0 {
			return "no delta recorded", false
		}
		return fmt.Sprintf("%.2f", res.AddPct), res.AddPct <= r.bound
	}
}

// allocsRuled reports whether a rule bounds the allocations of row.
func allocsRuled(row string) bool {
	return slices.ContainsFunc(baselineRules, func(r rule) bool {
		return r.kind == maxAllocs && r.row == row
	})
}

// raceEnabled reports whether the binary was built with the race
// detector, whose instrumentation adds shadow allocations to every count.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// checkRules renders every rule's verdict to out and returns an error
// naming each rule doc breaks. With skipAllocs, as in a race-instrumented
// run, whose shadow allocations inflate every count, the allocation rules
// are reported as skipped and every other rule is still evaluated.
func checkRules(out io.Writer, doc *baselineDoc, rules []rule, skipAllocs bool) error {
	rows := make(map[string]baselineResult, len(doc.Results))
	for _, r := range doc.Results {
		rows[r.Name] = r
	}
	var failed []string
	for _, r := range rules {
		if skipAllocs && r.kind == maxAllocs {
			fmt.Fprintf(out, "%-62s %14s  %s\n", r, "-", "skipped (race detector)")
			continue
		}
		got, ok := r.eval(rows)
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
			failed = append(failed, fmt.Sprintf("%v (got %s)", r, got))
		}
		fmt.Fprintf(out, "%-62s %14s  %s\n", r, got, verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench-baseline: %d of %d rules failed:\n\t%s",
			len(failed), len(rules), strings.Join(failed, "\n\t"))
	}
	return nil
}
