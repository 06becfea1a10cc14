package inplace

import (
	"errors"
	"fmt"

	"ipdelta/internal/delta"
)

// Analysis describes the in-place structure of a delta without converting
// it: the CRWI digraph, how entangled it is, and what conversion would
// cost. It needs only the delta (not the reference file), so inspection
// tools can run it anywhere.
type Analysis struct {
	// Copies and Adds partition the commands.
	Copies int
	Adds   int
	// Edges is the CRWI digraph's edge count (≤ VersionLen by Lemma 1).
	Edges int
	// CyclicComponents counts strongly connected components with at least
	// two vertices — the irreducible knots that force conversions.
	CyclicComponents int
	// VerticesInCycles counts copies entangled in those components.
	VerticesInCycles int
	// LargestComponent is the size of the biggest cyclic component.
	LargestComponent int
	// AlreadySafe reports whether the delta, in its current order,
	// satisfies Equation 2 (safe to apply in place as-is).
	AlreadySafe bool
	// ReorderSufficient reports whether the default conversion needs no
	// copy→add conversion: the CRWI digraph is acyclic, or cutting copies
	// at conflict boundaries untangles every cycle, so a permutation (of
	// copies, or of their pieces) makes the delta in-place safe.
	ReorderSufficient bool
	// MinConversionBytes lower-bounds the literal bytes the conversion
	// moves into the delta: the sum of CycleSacrifice.MinBytes.
	MinConversionBytes int64
	// CensusPolicy names the cycle-breaking policy the cycle census below
	// assumes (always "locally-minimum"; constant-time depends on DFS
	// discovery order, so its census would not be a function of the delta
	// alone). It is the same policy name the metrics layer bakes into
	// ipdelta_convert_cycles_broken_total{policy="..."}, so Analyze and a
	// live registry count the same thing.
	CensusPolicy string
	// LocallyMinimumBytes is what the default conversion (StrategySplit
	// under CensusPolicy) actually converts, summed over every cycle.
	LocallyMinimumBytes int64
	// CycleSacrifices reports, per cyclic component, what breaking its
	// cycles sacrifices — the per-cycle totals behind MinConversionBytes
	// and LocallyMinimumBytes.
	CycleSacrifices []CycleSacrifice
}

// CycleSacrifice is the conversion cost census of one cyclic strongly
// connected component under the default conversion.
type CycleSacrifice struct {
	// Vertices is the component's size (≥ 2).
	Vertices int
	// MinBytes is the least either resolution of the component converts:
	// its smallest copy (what any whole-copy feedback vertex set pays at
	// least), or less when splitting at conflict boundaries resolves it
	// with fewer bytes.
	MinBytes int64
	// SacrificedBytes is the literal bytes the conversion actually
	// converts to adds in this component.
	SacrificedBytes int64
	// SacrificedCopies counts the add commands the conversion makes from
	// copy data in this component (whole copies, or runs of pieces).
	SacrificedCopies int
	// Split reports whether the component is resolved by splitting its
	// copies at conflict boundaries rather than by the paper's whole-copy
	// resolution.
	Split bool
}

// Analyze inspects d and reports its in-place structure. The cycle
// census (LocallyMinimumBytes and the per-component CycleSacrifices) is
// computed by the same resolution Convert runs by default — conflict-
// boundary splitting under the locally-minimum policy — so it ties out
// to that conversion's Stats; a conversion with a different policy or
// strategy may sacrifice different copies.
func Analyze(d *delta.Delta) (*Analysis, error) {
	var cv Converter
	cv.init()
	if _, err := cv.resolve(d); err != nil {
		return nil, fmt.Errorf("analyze: %w", errors.Unwrap(err))
	}
	a := &Analysis{
		Copies:       cv.stats.Copies,
		Adds:         cv.stats.Adds,
		Edges:        cv.stats.Edges,
		AlreadySafe:  d.CheckInPlace() == nil,
		CensusPolicy: cv.stats.Policy,
	}
	for _, c := range cv.sp.comps {
		if c.size < 2 {
			continue
		}
		a.CyclicComponents++
		a.VerticesInCycles += c.size
		a.LargestComponent = max(a.LargestComponent, c.size)
		r := c.chosen()
		cs := CycleSacrifice{
			Vertices:         c.size,
			MinBytes:         c.minLen,
			SacrificedBytes:  r.convertedBytes,
			SacrificedCopies: r.converted,
			Split:            c.split,
		}
		if c.split {
			cs.MinBytes = min(cs.MinBytes, r.convertedBytes)
		}
		a.MinConversionBytes += cs.MinBytes
		a.LocallyMinimumBytes += cs.SacrificedBytes
		a.CycleSacrifices = append(a.CycleSacrifices, cs)
	}
	a.ReorderSufficient = cv.stats.ConvertedCopies == 0
	return a, nil
}
