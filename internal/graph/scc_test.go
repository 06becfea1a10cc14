package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sccOf returns a canonical (sorted) form of the SCC decomposition.
func sccOf(g *CSR) [][]int {
	sccs := StronglyConnectedComponents(g)
	for _, c := range sccs {
		sort.Ints(c)
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

func TestSCCSimple(t *testing.T) {
	// 0→1→2→0 is one SCC; 3 hangs off it; 4 isolated.
	g := FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	sccs := sccOf(g)
	if len(sccs) != 3 {
		t.Fatalf("sccs = %v", sccs)
	}
	if len(sccs[0]) != 3 || sccs[0][0] != 0 || sccs[0][2] != 2 {
		t.Fatalf("big component = %v", sccs[0])
	}
}

func TestSCCDag(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	sccs := sccOf(g)
	if len(sccs) != 4 {
		t.Fatalf("DAG should decompose into singletons: %v", sccs)
	}
}

func TestSCCTwoComponents(t *testing.T) {
	g := FromEdges(6, [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {1, 2}})
	sccs := sccOf(g)
	if len(sccs) != 3 { // {0,1}, {2,3,4}, {5}
		t.Fatalf("sccs = %v", sccs)
	}
	if len(sccs[0]) != 2 || len(sccs[1]) != 3 || len(sccs[2]) != 1 {
		t.Fatalf("sccs = %v", sccs)
	}
}

func TestSCCEveryVertexOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		g := randomDigraph(rng, n, rng.Float64()*0.15)
		seen := make([]bool, n)
		total := 0
		for _, comp := range StronglyConnectedComponents(g) {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// mutualReach reports whether u and v lie on a common cycle (reach each
// other), by brute force.
func mutualReach(g *CSR, u, v int) bool {
	return reaches(g, u, v) && reaches(g, v, u)
}

func reaches(g *CSR, from, to int) bool {
	if from == to {
		return true
	}
	seen := make([]bool, g.NumVertices())
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Succ(cur) {
			if int(w) == to {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, int(w))
			}
		}
	}
	return false
}

func TestSCCQuickAgainstMutualReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(14) + 2
		g := randomDigraph(rng, n, 0.25)
		comp := make([]int, n)
		for id, c := range StronglyConnectedComponents(g) {
			for _, v := range c {
				comp[v] = id
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if (comp[u] == comp[v]) != mutualReach(g, u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
