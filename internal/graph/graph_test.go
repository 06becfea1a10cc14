package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDigraphBasics(t *testing.T) {
	if g := FromEdges(4, nil); g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatal("edgeless digraph wrong size")
	}
	// Parallel edges are allowed and counted; successors keep list order.
	g := FromEdges(4, [][2]int32{{0, 3}, {1, 2}, {0, 1}, {0, 3}})
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("%d vertices, %d edges, want 4 and 4", g.NumVertices(), g.NumEdges())
	}
	if !slices.Equal(g.Succ(0), []int32{3, 1, 3}) || !slices.Equal(g.Succ(1), []int32{2}) ||
		len(g.Succ(2)) != 0 || len(g.Succ(3)) != 0 {
		t.Fatalf("successors %v %v %v %v", g.Succ(0), g.Succ(1), g.Succ(2), g.Succ(3))
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	for _, e := range [][2]int32{{0, 5}, {2, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("edge %v: expected panic", e)
				}
			}()
			FromEdges(2, [][2]int32{e})
		}()
	}
}

// acyclic reports whether g restricted to the vertices not in removed (nil
// for none) has no cycle.
func acyclic(g *CSR, removed []bool) bool {
	if removed == nil {
		removed = make([]bool, g.NumVertices())
	}
	return findCycle(g, removed) == nil
}

// TestIsAcyclic checks the two ways to test acyclicity over a CSR:
// findCycle under a removal mask, and a sort that breaks no cycle.
func TestIsAcyclic(t *testing.T) {
	dag := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if !acyclic(dag, nil) || TopoSort(dag, UnitCost, LocallyMinimum{}).CyclesBroken != 0 {
		t.Fatal("DAG reported cyclic")
	}
	cyc := FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	if acyclic(cyc, nil) || TopoSort(cyc, UnitCost, LocallyMinimum{}).CyclesBroken == 0 {
		t.Fatal("cycle reported acyclic")
	}
	if c := findCycle(cyc, make([]bool, 3)); !slices.Equal(c, []int{0, 1, 2}) {
		t.Fatalf("findCycle = %v, want the cycle in path order", c)
	}
	// Removing vertex 1 breaks the cycle.
	if !acyclic(cyc, []bool{false, true, false}) {
		t.Fatal("removal not honored")
	}
}

func TestTopoSortDAG(t *testing.T) {
	g := FromEdges(6, [][2]int32{{5, 2}, {5, 0}, {4, 0}, {4, 1}, {2, 3}, {3, 1}})
	res := TopoSort(g, UnitCost, ConstantTime{})
	if len(res.Removed) != 0 || res.CyclesBroken != 0 {
		t.Fatalf("DAG should need no removals: %+v", res)
	}
	if len(res.Order) != 6 {
		t.Fatalf("Order has %d vertices", len(res.Order))
	}
	if !VerifyTopological(g, res) {
		t.Fatalf("order %v violates edges", res.Order)
	}
}

func TestTopoSortSimpleCycle(t *testing.T) {
	g := FromEdges(2, [][2]int32{{0, 1}, {1, 0}})
	for _, p := range []Policy{ConstantTime{}, LocallyMinimum{}} {
		res := TopoSort(g, UnitCost, p)
		if res.CyclesBroken != 1 || len(res.Removed) != 1 {
			t.Fatalf("%s: %+v", p.Name(), res)
		}
		if !VerifyTopological(g, res) {
			t.Fatalf("%s: invalid result", p.Name())
		}
	}
}

func TestTopoSortSelfContainedCostAccounting(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	costs := []int64{10, 1, 5}
	cost := func(v int) int64 { return costs[v] }

	res := TopoSort(g, cost, LocallyMinimum{})
	if len(res.Removed) != 1 || res.Removed[0] != 1 {
		t.Fatalf("locally-minimum removed %v, want vertex 1", res.Removed)
	}
	if res.RemovedCost != 1 {
		t.Fatalf("RemovedCost = %d", res.RemovedCost)
	}
	if res.CycleVertices != 3 {
		t.Fatalf("CycleVertices = %d, want 3", res.CycleVertices)
	}
}

func TestTopoSortConstantTimeRemovesDetectionPoint(t *testing.T) {
	// 0→1→2→0: DFS from 0 detects the cycle at vertex 2 (edge 2→0), so the
	// constant-time policy must delete vertex 2.
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
	res := TopoSort(g, UnitCost, ConstantTime{})
	if len(res.Removed) != 1 || res.Removed[0] != 2 {
		t.Fatalf("constant-time removed %v, want vertex 2", res.Removed)
	}
}

func TestTopoSortTwoIndependentCycles(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 2}})
	res := TopoSort(g, UnitCost, ConstantTime{})
	if res.CyclesBroken != 2 || len(res.Removed) != 2 {
		t.Fatalf("%+v", res)
	}
	if !VerifyTopological(g, res) {
		t.Fatal("invalid result")
	}
}

func TestTopoSortNestedCycles(t *testing.T) {
	// Figure-eight: two cycles sharing vertex 0. Deleting 0 breaks both.
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 0}, {0, 2}, {2, 0}})
	costs := []int64{1, 100, 100}
	res := TopoSort(g, func(v int) int64 { return costs[v] }, LocallyMinimum{})
	if !VerifyTopological(g, res) {
		t.Fatal("invalid result")
	}
	if len(res.Removed) != 1 || res.Removed[0] != 0 {
		t.Fatalf("removed %v, want just the shared vertex 0", res.Removed)
	}
}

func TestMinFeedbackVertexSet(t *testing.T) {
	t.Run("acyclic needs nothing", func(t *testing.T) {
		g := FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
		set, cost, err := MinFeedbackVertexSet(g, UnitCost, 10)
		if err != nil || len(set) != 0 || cost != 0 {
			t.Fatalf("set=%v cost=%d err=%v", set, cost, err)
		}
	})
	t.Run("single cycle removes cheapest", func(t *testing.T) {
		g := FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {2, 0}})
		costs := []int64{5, 2, 9}
		set, cost, err := MinFeedbackVertexSet(g, func(v int) int64 { return costs[v] }, 10)
		if err != nil || len(set) != 1 || set[0] != 1 || cost != 2 {
			t.Fatalf("set=%v cost=%d err=%v", set, cost, err)
		}
	})
	t.Run("size limit enforced", func(t *testing.T) {
		g := FromEdges(30, nil)
		if _, _, err := MinFeedbackVertexSet(g, UnitCost, 10); err == nil {
			t.Fatal("expected ErrTooLarge")
		}
	})
}

// randomDigraph builds a digraph with n vertices and roughly density*n*n
// edges, no self-loops.
func randomDigraph(rng *rand.Rand, n int, density float64) *CSR {
	var edges [][2]int32
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < density {
				edges = append(edges, [2]int32{int32(u), int32(v)})
			}
		}
	}
	return FromEdges(n, edges)
}

func TestQuickTopoSortValidOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		g := randomDigraph(rng, n, rng.Float64()*0.2)
		costs := make([]int64, n)
		for k := range costs {
			costs[k] = rng.Int63n(100) + 1
		}
		cost := func(v int) int64 { return costs[v] }
		for _, p := range []Policy{ConstantTime{}, LocallyMinimum{}} {
			res := TopoSort(g, cost, p)
			if !VerifyTopological(g, res) {
				return false
			}
			// The removed set must actually break all cycles.
			removed := make([]bool, n)
			for _, v := range res.Removed {
				removed[v] = true
			}
			if !acyclic(g, removed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOptimalNeverWorseThanPolicies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(9) + 2
		g := randomDigraph(rng, n, 0.25)
		costs := make([]int64, n)
		for k := range costs {
			costs[k] = rng.Int63n(50) + 1
		}
		cost := func(v int) int64 { return costs[v] }
		_, optCost, err := MinFeedbackVertexSet(g, cost, 16)
		if err != nil {
			return false
		}
		// Optimal removal set must make the graph acyclic.
		set, _, _ := MinFeedbackVertexSet(g, cost, 16)
		removed := make([]bool, n)
		for _, v := range set {
			removed[v] = true
		}
		if !acyclic(g, removed) {
			return false
		}
		for _, p := range []Policy{ConstantTime{}, LocallyMinimum{}} {
			if TopoSort(g, cost, p).RemovedCost < optCost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"constant-time", "locally-minimum"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestTopoSortDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomDigraph(rng, 60, 0.1)
	costs := make([]int64, 60)
	for k := range costs {
		costs[k] = rng.Int63n(100) + 1
	}
	cost := func(v int) int64 { return costs[v] }
	first := TopoSort(g, cost, LocallyMinimum{})
	for k := 0; k < 5; k++ {
		again := TopoSort(g, cost, LocallyMinimum{})
		if len(again.Order) != len(first.Order) || len(again.Removed) != len(first.Removed) {
			t.Fatal("nondeterministic result sizes")
		}
		for i := range first.Order {
			if first.Order[i] != again.Order[i] {
				t.Fatal("nondeterministic order")
			}
		}
		for i := range first.Removed {
			if first.Removed[i] != again.Removed[i] {
				t.Fatal("nondeterministic removals")
			}
		}
	}
}

func TestTopoSortLargeStress(t *testing.T) {
	// 20k vertices, ~100k edges: the sort must stay fast and valid.
	rng := rand.New(rand.NewSource(100))
	const n = 20000
	var edges [][2]int32
	for k := 0; k < 5*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
	}
	g := FromEdges(n, edges)
	res := TopoSort(g, UnitCost, ConstantTime{})
	if !VerifyTopological(g, res) {
		t.Fatal("invalid result on stress graph")
	}
	removed := make([]bool, n)
	for _, v := range res.Removed {
		removed[v] = true
	}
	if !acyclic(g, removed) {
		t.Fatal("cycles left on stress graph")
	}
}
