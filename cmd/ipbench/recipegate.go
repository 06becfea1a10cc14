package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"ipdelta/internal/chunk"
	"ipdelta/internal/diff"
)

// The recipe-gate mode (-recipe-gate) measures the chunked recipe-diff fast
// path against the full-image reuse differencer on one blocky-churn input
// and fails (non-zero exit) unless the recipe path wins by at least
// -recipe-speedup. It is self-contained — both sides run in the same
// process on the same input, so CI can enforce "the dedup
// tier actually pays for itself" on any runner without a committed
// baseline. Before timing anything the gate applies both deltas and
// requires byte-identical reconstructions: a fast wrong answer must never
// pass.

// errRecipeGate marks a gate failure so main can exit non-zero.
type errRecipeGate struct{ msg string }

func (e errRecipeGate) Error() string { return e.msg }

// gateRow is one measured engine configuration.
type gateRow struct {
	name string
	fn   func(b *testing.B)
	ns   float64
}

// measureRows benchmarks every row three times in round-robin order and
// keeps each row's minimum. Interleaving matters: on a busy or thermally
// drifting runner, measuring each row once in sequence folds machine
// drift into the between-row comparison, which is exactly what the gate
// compares.
func measureRows(rows []gateRow) {
	for round := 0; round < 3; round++ {
		for i := range rows {
			r := testing.Benchmark(rows[i].fn)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if round == 0 || ns < rows[i].ns {
				rows[i].ns = ns
			}
		}
	}
}

// runRecipeGate builds a churned version pair, checks that the recipe diff
// and the full diff reconstruct the same bytes, then times both
// interleaved (best of three rounds) and enforces the speedup bound.
func runRecipeGate(out io.Writer, speedup float64, quick bool, seed int64) error {
	size := 16 << 20
	if quick {
		size = 2 << 20
	}
	oldImg := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(oldImg)
	newImg := blockyChurn(oldImg, 0.05, seed+1)

	ck, err := chunk.NewChunker(chunk.Params{})
	if err != nil {
		return fmt.Errorf("recipe-gate: %w", err)
	}
	cs := chunk.NewStore()
	ro := cs.IngestAll(ck, oldImg)
	rn := cs.IngestAll(ck, newImg)
	rd := diff.NewRecipeDiffer()
	dr := diff.NewDiffer()

	// Correctness first: both paths must reproduce newImg exactly.
	recipeDelta, err := rd.DiffRecipes(ro, rn, cs)
	if err != nil {
		return fmt.Errorf("recipe-gate: recipe diff: %w", err)
	}
	fullDelta, err := dr.Diff(oldImg, newImg)
	if err != nil {
		return fmt.Errorf("recipe-gate: full diff: %w", err)
	}
	got, err := recipeDelta.Apply(oldImg)
	if err != nil {
		return fmt.Errorf("recipe-gate: apply recipe delta: %w", err)
	}
	if !bytes.Equal(got, newImg) {
		return errRecipeGate{msg: "recipe delta does not reconstruct the version image"}
	}
	got, err = fullDelta.Apply(oldImg)
	if err != nil {
		return fmt.Errorf("recipe-gate: apply full delta: %w", err)
	}
	if !bytes.Equal(got, newImg) {
		return errRecipeGate{msg: "full delta does not reconstruct the version image"}
	}

	fmt.Fprintf(out, "recipe gate: %d-byte input, 5%% blocky churn, %d CPU, required speedup %.1fx\n\n",
		size, runtime.NumCPU(), speedup)

	rows := []gateRow{
		{name: "diff/full", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dr.Diff(oldImg, newImg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "recipe/diff", fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rd.DiffRecipes(ro, rn, cs); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	measureRows(rows)
	fullNs, recipeNs := rows[0].ns, rows[1].ns

	fmt.Fprintf(out, "%-14s %14s %10s\n", "benchmark", "ns/op", "MB/s")
	for _, r := range rows {
		fmt.Fprintf(out, "%-14s %14.0f %10.1f\n", r.name, r.ns, float64(size)/r.ns*1e3)
	}
	got0 := fullNs / recipeNs
	fmt.Fprintf(out, "\nrecipe speedup: %.2fx (deltas byte-equivalent after apply)\n", got0)
	if got0 < speedup {
		return errRecipeGate{msg: fmt.Sprintf(
			"recipe diff is only %.2fx faster than the full differ (required %.1fx)", got0, speedup)}
	}
	fmt.Fprintf(out, "recipe gate passed\n")
	return nil
}
