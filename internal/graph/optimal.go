package graph

import (
	"errors"
	"fmt"
	"math"
)

// ErrTooLarge is returned when an exhaustive search is asked for a graph
// beyond its configured size limit.
var ErrTooLarge = errors.New("graph too large for exhaustive search")

// MinFeedbackVertexSet computes a minimum-cost set of vertices whose
// removal makes g acyclic — the globally optimal cycle-breaking solution
// the paper proves NP-hard (§5). It is exponential in the worst case and
// refuses graphs with more than maxVertices vertices; it exists so tests
// and ablation benchmarks can bound the constant-time and locally-minimum
// policies against the true optimum on small instances.
//
// The search branches on the vertices of some cycle of the residual graph
// (every feedback vertex set must contain one of them) with cost-based
// pruning.
func MinFeedbackVertexSet(g *CSR, cost CostFunc, maxVertices int) ([]int, int64, error) {
	if g.NumVertices() > maxVertices {
		return nil, 0, fmt.Errorf("%w: %d vertices > limit %d", ErrTooLarge, g.NumVertices(), maxVertices)
	}
	s := &fvsSearch{
		g:        g,
		cost:     cost,
		removed:  make([]bool, g.NumVertices()),
		bestCost: math.MaxInt64,
	}
	s.search(0)
	if s.best == nil {
		s.best = []int{} // acyclic input: empty set
	}
	return s.best, s.bestCost, nil
}

type fvsSearch struct {
	g        *CSR
	cost     CostFunc
	removed  []bool
	current  []int
	curCost  int64
	best     []int
	bestCost int64
}

func (s *fvsSearch) search(depth int) {
	if s.curCost >= s.bestCost {
		return
	}
	cycle := findCycle(s.g, s.removed)
	if cycle == nil {
		s.best = append([]int(nil), s.current...)
		s.bestCost = s.curCost
		return
	}
	for _, v := range cycle {
		s.removed[v] = true
		s.current = append(s.current, v)
		s.curCost += s.cost(v)
		s.search(depth + 1)
		s.curCost -= s.cost(v)
		s.current = s.current[:len(s.current)-1]
		s.removed[v] = false
	}
}

// findCycle returns some cycle of g restricted to non-removed vertices, in
// path order, or nil if the restriction is acyclic.
func findCycle(g *CSR, removed []bool) []int {
	n := g.NumVertices()
	color := make([]byte, n)
	type frame struct {
		v    int32
		edge int
	}
	var stack []frame
	for root := 0; root < n; root++ {
		if color[root] != white || removed[root] {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{v: int32(root)})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			succ := g.Succ(int(top.v))
			if top.edge >= len(succ) {
				color[top.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := succ[top.edge]
			top.edge++
			if removed[w] {
				continue
			}
			switch color[w] {
			case white:
				color[w] = gray
				stack = append(stack, frame{v: w})
			case gray:
				at := len(stack) - 1
				for stack[at].v != w {
					at--
				}
				cycle := make([]int, 0, len(stack)-at)
				for k := at; k < len(stack); k++ {
					cycle = append(cycle, int(stack[k].v))
				}
				return cycle
			}
		}
	}
	return nil
}
