// Package graph provides the digraph machinery behind in-place conversion:
// a compressed-sparse-row digraph, a topological sort that detects and
// breaks cycles as it runs, and the cycle-breaking policies analyzed in §5
// of the paper (constant-time, locally-minimum, and — as an extension — an
// exhaustive optimum for small graphs, usable to bound the policies
// empirically even though the general problem is NP-hard).
package graph

import "fmt"

// FromEdges returns the digraph on vertices 0..n-1 with the given edges
// u→v, in freshly allocated memory. Each vertex's successors keep the
// order in which their edges appear in the list; parallel edges are kept.
// Every endpoint must be in range. The caller is responsible for not
// inserting self-loops where they matter (the paper defines WR conflicts
// so a command never conflicts with itself).
func FromEdges(n int, edges [][2]int32) *CSR {
	var b CSRBuilder
	b.Reset(n)
	for _, e := range edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e[0], e[1], n))
		}
		b.CountEdge(int(e[0]))
	}
	b.StartFill()
	for _, e := range edges {
		b.FillEdge(int(e[0]), int(e[1]))
	}
	return b.Finish()
}
