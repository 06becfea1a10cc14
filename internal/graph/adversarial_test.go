package graph

import "testing"

// AdversarialTree builds the Figure 2 digraph of the paper: a complete
// binary tree of the given depth with edges from each parent to its
// children, plus a directed edge from every leaf back to the root. Every
// root-to-leaf path closes a distinct cycle through the root.
//
// Vertex 0 is the root; vertices are numbered heap-style (children of v are
// 2v+1 and 2v+2). Depth 1 means a root with two leaf children.
//
// The cost function makes each leaf the cheapest vertex on its own cycle
// while the root is barely more expensive than a single leaf: the
// locally-minimum policy deletes every leaf (total cost ≈ leaves×leafCost)
// where deleting just the root (rootCost) breaks all cycles at once —
// the paper's example of locally-minimum being arbitrarily worse than the
// global optimum.
func AdversarialTree(depth int, leafCost, rootCost, innerCost int64) (*CSR, CostFunc) {
	if depth < 1 {
		depth = 1
	}
	n := (1 << (depth + 1)) - 1
	firstLeaf := (1 << depth) - 1
	var edges [][2]int32
	for v := int32(0); v < int32(firstLeaf); v++ {
		edges = append(edges, [2]int32{v, 2*v + 1}, [2]int32{v, 2*v + 2})
	}
	for v := int32(firstLeaf); v < int32(n); v++ {
		edges = append(edges, [2]int32{v, 0})
	}
	costs := make([]int64, n)
	for v := range costs {
		switch {
		case v == 0:
			costs[v] = rootCost
		case v >= firstLeaf:
			costs[v] = leafCost
		default:
			costs[v] = innerCost
		}
	}
	return FromEdges(n, edges), func(v int) int64 { return costs[v] }
}

// NumLeaves returns the number of leaves of the Figure 2 tree of the given
// depth.
func NumLeaves(depth int) int {
	if depth < 1 {
		depth = 1
	}
	return 1 << depth
}

func TestAdversarialTreeShape(t *testing.T) {
	depth := 3
	g, cost := AdversarialTree(depth, 5, 6, 50)
	n := g.NumVertices()
	if n != 15 {
		t.Fatalf("vertices = %d, want 15", n)
	}
	if NumLeaves(depth) != 8 {
		t.Fatalf("NumLeaves = %d", NumLeaves(depth))
	}
	// 2 edges per internal vertex + 1 per leaf.
	if g.NumEdges() != 7*2+8 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if cost(0) != 6 || cost(7) != 5 || cost(1) != 50 {
		t.Fatal("cost assignment wrong")
	}
	if acyclic(g, nil) {
		t.Fatal("tree with back edges must be cyclic")
	}
	// Depth below 1 is clamped.
	g2, _ := AdversarialTree(0, 1, 1, 1)
	if g2.NumVertices() != 3 {
		t.Fatalf("clamped tree has %d vertices", g2.NumVertices())
	}
}

func TestAdversarialTreePolicyGap(t *testing.T) {
	// The paper's Figure 2 claim: locally-minimum deletes every leaf while
	// deleting the root alone is optimal.
	depth := 4
	leaves := NumLeaves(depth)
	g, cost := AdversarialTree(depth, 10, 11, 1000)

	lm := TopoSort(g, cost, LocallyMinimum{})
	if !VerifyTopological(g, lm) {
		t.Fatal("invalid LM result")
	}
	if len(lm.Removed) != leaves {
		t.Fatalf("locally-minimum removed %d vertices, want %d leaves", len(lm.Removed), leaves)
	}
	if lm.RemovedCost != int64(leaves)*10 {
		t.Fatalf("LM cost = %d", lm.RemovedCost)
	}

	opt, optCost, err := MinFeedbackVertexSet(g, cost, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) != 1 || opt[0] != 0 || optCost != 11 {
		t.Fatalf("optimal = %v cost %d, want root at cost 11", opt, optCost)
	}
	if lm.RemovedCost <= optCost {
		t.Fatal("adversarial example must make LM strictly worse than optimal")
	}
}
