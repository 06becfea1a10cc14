package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// toCSR rebuilds g with the two-pass builder b, preserving per-vertex
// successor order, so the result lives in b's reused backing arrays.
func toCSR(b *CSRBuilder, g *CSR) *CSR {
	n := g.NumVertices()
	b.Reset(n)
	for u := 0; u < n; u++ {
		b.AddDegree(u, len(g.Succ(u)))
	}
	b.StartFill()
	for u := 0; u < n; u++ {
		for _, v := range g.Succ(u) {
			b.FillEdge(u, int(v))
		}
	}
	return b.Finish()
}

// TestCSRMatchesDigraph checks that FromEdges reproduces the adjacency
// lists of the same edge list exactly, successor order included, and that
// a builder reused across graphs of varying size (growing and shrinking)
// copies it faithfully.
func TestCSRMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b CSRBuilder
	sizes := []int{0, 1, 40, 7, 120, 3, 80}
	for _, n := range sizes {
		// Edges in random order, so successor order is not sorted order.
		var edges [][2]int32
		adj := make([][]int32, n)
		for k := 0; n > 0 && k < n*n/10; k++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			edges = append(edges, [2]int32{u, v})
			adj[u] = append(adj[u], v)
		}
		g := FromEdges(n, edges)
		cs := toCSR(&b, g)
		for _, h := range []*CSR{g, cs} {
			if h.NumVertices() != n || h.NumEdges() != len(edges) {
				t.Fatalf("n=%d: CSR %d/%d vertices/edges, want %d/%d",
					n, h.NumVertices(), h.NumEdges(), n, len(edges))
			}
			for u := 0; u < n; u++ {
				if !slices.Equal(h.Succ(u), adj[u]) {
					t.Fatalf("n=%d: successors of %d differ: CSR %v, adjacency %v",
						n, u, h.Succ(u), adj[u])
				}
			}
		}
	}
}

// TestCSRBuilderUnderfillPanics checks the fill-count invariant.
func TestCSRBuilderUnderfillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Finish did not panic on an underfilled row")
		}
	}()
	var b CSRBuilder
	b.Reset(2)
	b.AddDegree(0, 2)
	b.StartFill()
	b.FillEdge(0, 1) // one of two declared edges
	b.Finish()
}

// TestTopoScratchMatchesTopoSort runs one reused scratch sort over random
// inputs rebuilt in a reused builder, checking outcomes are valid and
// identical to the free function's on the original graph.
func TestTopoScratchMatchesTopoSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cost := func(v int) int64 { return int64(v + 1) }
	var ts TopoScratch
	var b CSRBuilder
	for i := 0; i < 80; i++ {
		g := randomDigraph(rng, 1+rng.Intn(60), 0.08)
		want := TopoSort(g, cost, LocallyMinimum{})
		got := ts.Sort(toCSR(&b, g), cost, LocallyMinimum{})
		if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Removed, want.Removed) {
			t.Fatalf("case %d: scratch sort differs: got %+v, want %+v", i, got, want)
		}
		if got.CyclesBroken != want.CyclesBroken || got.RemovedCost != want.RemovedCost {
			t.Fatalf("case %d: scratch stats differ: got %+v, want %+v", i, got, want)
		}
		if !VerifyTopological(g, got) {
			t.Fatalf("case %d: scratch sort result not topological", i)
		}
	}
}

// TestTopoScratchSteadyStateAllocs gates the scratch-based sort at zero
// steady-state allocations.
func TestTopoScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomDigraph(rng, 200, 0.05)
	var b CSRBuilder
	cs := toCSR(&b, g)
	cost := func(v int) int64 { return int64(v + 1) }
	var ts TopoScratch
	ts.Sort(cs, cost, LocallyMinimum{}) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		ts.Sort(cs, cost, LocallyMinimum{})
	})
	if allocs > 0 {
		t.Fatalf("steady-state TopoScratch.Sort allocates %.1f times per call, want 0", allocs)
	}
}

// TestSCCScratchMatchesComponents checks the flat Tarjan output of a
// reused scratch agrees with the nested-slice wrapper.
func TestSCCScratchMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s SCCScratch
	var b CSRBuilder
	for i := 0; i < 80; i++ {
		g := randomDigraph(rng, 1+rng.Intn(60), 0.08)
		want := StronglyConnectedComponents(g)
		verts, offs := s.Components(toCSR(&b, g))
		if len(offs)-1 != len(want) {
			t.Fatalf("case %d: %d components, want %d", i, len(offs)-1, len(want))
		}
		for k := range want {
			comp := verts[offs[k]:offs[k+1]]
			if len(comp) != len(want[k]) {
				t.Fatalf("case %d: component %d has %d vertices, want %d", i, k, len(comp), len(want[k]))
			}
			for j, v := range comp {
				if int(v) != want[k][j] {
					t.Fatalf("case %d: component %d: got %v, want %v", i, k, comp, want[k])
				}
			}
		}
	}
}

// TestSCCScratchSteadyStateAllocs gates the flat SCC pass at zero
// steady-state allocations.
func TestSCCScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDigraph(rng, 200, 0.05)
	var b CSRBuilder
	cs := toCSR(&b, g)
	var s SCCScratch
	s.Components(cs) // warm up
	allocs := testing.AllocsPerRun(20, func() {
		s.Components(cs)
	})
	if allocs > 0 {
		t.Fatalf("steady-state SCCScratch.Components allocates %.1f times per call, want 0", allocs)
	}
}
