package graph

import "fmt"

// CSR is a digraph in compressed sparse row form: the successor lists of
// all vertices live back to back in one edge array, delimited by a
// row-start table. Construction goes through CSRBuilder or FromEdges; a
// built CSR is immutable. It performs no per-vertex allocations and walks
// edges with perfect locality, which is what the conversion hot path
// wants for CRWI digraphs (up to one edge per version byte, Lemma 1).
type CSR struct {
	// row has NumVertices()+1 entries; the successors of u are
	// edges[row[u]:row[u+1]].
	row   []int32
	edges []int32
}

// NumVertices returns the vertex count; vertices are 0..n-1.
func (g *CSR) NumVertices() int {
	if len(g.row) == 0 {
		return 0
	}
	return len(g.row) - 1
}

// NumEdges returns the edge count, counting parallel edges.
func (g *CSR) NumEdges() int { return len(g.edges) }

// Succ returns the successor list of u. The returned slice aliases the
// CSR's edge array and must not be modified.
//
//ipvet:allocfree
func (g *CSR) Succ(u int) []int32 { return g.edges[g.row[u]:g.row[u+1]] }

// CSRBuilder constructs CSR digraphs in the classic two passes — declare
// degrees, prefix-sum the row table, then fill edges — over backing arrays
// that are reused across builds. In steady state (same or smaller graph
// shape) a build performs no allocations.
//
// Usage:
//
//	b.Reset(n)
//	for each edge u→v: b.CountEdge(u)      // or b.AddDegree(u, k)
//	b.StartFill()
//	for each edge u→v: b.FillEdge(u, v)    // same edges, same per-u order
//	g := b.Finish()
//
// The returned *CSR is backed by the builder's arrays: it remains valid
// only until the next Reset. Callers that retain graphs across builds must
// use separate builders.
type CSRBuilder struct {
	g CSR
	// next doubles as the degree accumulator before StartFill and the
	// per-row fill cursor after it.
	next []int32
}

// Reset prepares the builder for a graph with n vertices, clearing any
// previous state while retaining backing capacity.
func (b *CSRBuilder) Reset(n int) {
	b.g.row = growInt32(b.g.row, n+1)
	b.next = growInt32(b.next, n)
}

// CountEdge declares one future edge out of u (first pass).
//
//ipvet:allocfree
func (b *CSRBuilder) CountEdge(u int) { b.next[u]++ }

// AddDegree declares k future edges out of u (first pass). It lets callers
// that already know a vertex's out-degree skip per-edge counting.
//
//ipvet:allocfree
func (b *CSRBuilder) AddDegree(u, k int) { b.next[u] += int32(k) }

// StartFill freezes the declared degrees into the row table and prepares
// the edge array for the fill pass.
func (b *CSRBuilder) StartFill() {
	n := len(b.next)
	var total int32
	for u := 0; u < n; u++ {
		deg := b.next[u]
		b.g.row[u] = total
		b.next[u] = total
		total += deg
	}
	b.g.row[n] = total
	if cap(b.g.edges) < int(total) {
		b.g.edges = make([]int32, total)
	} else {
		b.g.edges = b.g.edges[:total]
	}
}

// FillEdge records the edge u→v (second pass). Edges out of the same u are
// stored in the order they are filled.
//
//ipvet:allocfree
func (b *CSRBuilder) FillEdge(u, v int) {
	b.g.edges[b.next[u]] = int32(v)
	b.next[u]++
}

// Finish checks that every declared edge was filled and returns the graph.
// The result is backed by the builder and valid until the next Reset.
func (b *CSRBuilder) Finish() *CSR {
	for u := 0; u < len(b.next); u++ {
		if b.next[u] != b.g.row[u+1] {
			panic(fmt.Sprintf("graph: CSR row %d filled %d of %d edges",
				u, b.next[u]-b.g.row[u], b.g.row[u+1]-b.g.row[u]))
		}
	}
	return &b.g
}

// growInt32 returns s resized to n elements, all zero, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reserve returns s emptied, with capacity for at least n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// growBytes returns s resized to n elements, all zero, reusing capacity.
func growBytes(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	s = s[:n]
	clear(s)
	return s
}
