package graph

// SCCScratch holds the working state of Tarjan's algorithm so repeated
// SCC computations reuse one set of buffers. In steady state a Components
// call performs no allocations. The zero value is ready for use; an
// SCCScratch must not be used concurrently.
type SCCScratch struct {
	index   []int32
	lowlink []int32
	onStack []bool
	stack   []int32
	dfs     []topoFrame
	// flat component output: component k is verts[offs[k]:offs[k+1]].
	verts []int32
	offs  []int32
}

// Components computes the strongly connected components of g with an
// iterative Tarjan DFS, returning them in a flat form: component k is
// verts[offs[k]:offs[k+1]], and there are len(offs)-1 components.
// Components are produced in reverse topological order of the condensation
// (Tarjan's natural output order). The returned slices are owned by the
// scratch and remain valid only until the next Components call.
func (s *SCCScratch) Components(g Graph) (verts, offs []int32) {
	n := g.NumVertices()
	const unvisited = -1
	s.index = growInt32(s.index, n)
	s.lowlink = growInt32(s.lowlink, n)
	s.onStack = growBools(s.onStack, n)
	s.stack = reserve(s.stack, n)
	s.dfs = reserve(s.dfs, n)
	s.verts = reserve(s.verts, n)
	s.offs = append(reserve(s.offs, n+1), 0)
	for k := range s.index {
		s.index[k] = unvisited
	}

	var counter int32
	for root := 0; root < n; root++ {
		if s.index[root] != unvisited {
			continue
		}
		s.dfs = append(s.dfs[:0], topoFrame{v: int32(root)})
		s.index[root] = counter
		s.lowlink[root] = counter
		counter++
		s.stack = append(s.stack, int32(root))
		s.onStack[root] = true
		for len(s.dfs) > 0 {
			top := &s.dfs[len(s.dfs)-1]
			succ := g.Succ(int(top.v))
			if top.edge < len(succ) {
				w := succ[top.edge]
				top.edge++
				if s.index[w] == unvisited {
					s.index[w] = counter
					s.lowlink[w] = counter
					counter++
					s.stack = append(s.stack, w)
					s.onStack[w] = true
					s.dfs = append(s.dfs, topoFrame{v: w})
				} else if s.onStack[w] && s.index[w] < s.lowlink[top.v] {
					s.lowlink[top.v] = s.index[w]
				}
				continue
			}
			// Finished top.v: pop an SCC if it is a root.
			v := top.v
			s.dfs = s.dfs[:len(s.dfs)-1]
			if len(s.dfs) > 0 {
				if s.lowlink[v] < s.lowlink[s.dfs[len(s.dfs)-1].v] {
					s.lowlink[s.dfs[len(s.dfs)-1].v] = s.lowlink[v]
				}
			}
			if s.lowlink[v] == s.index[v] {
				for {
					w := s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.onStack[w] = false
					s.verts = append(s.verts, w)
					if w == v {
						break
					}
				}
				s.offs = append(s.offs, int32(len(s.verts)))
			}
		}
	}
	return s.verts, s.offs
}

// StronglyConnectedComponents returns the SCCs of g using an iterative
// Tarjan algorithm. Every vertex appears in exactly one component;
// components are returned in reverse topological order of the condensation
// (Tarjan's natural output order). Singleton components without self-loops
// are trivially acyclic; every cycle of g lives inside one component.
//
// The result is freshly allocated; hot paths that can tolerate flat,
// scratch-owned output should use SCCScratch.Components directly.
func StronglyConnectedComponents(g Graph) [][]int {
	var s SCCScratch
	verts, offs := s.Components(g)
	sccs := make([][]int, len(offs)-1)
	for k := range sccs {
		comp := make([]int, 0, offs[k+1]-offs[k])
		for _, v := range verts[offs[k]:offs[k+1]] {
			comp = append(comp, int(v))
		}
		sccs[k] = comp
	}
	return sccs
}

// growBools returns s resized to n elements, all false, reusing capacity.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// GreedyFeedbackVertexSet computes a feedback vertex set with an SCC-scoped
// greedy heuristic: within every non-trivial strongly connected component,
// repeatedly delete the vertex with the best (in·out degree)/cost score
// until the component decomposes. This is an alternative cycle-breaking
// strategy to the paper's DFS-embedded policies, included as an ablation:
// it sees whole components rather than one cycle at a time, at the cost of
// repeated SCC computations.
func GreedyFeedbackVertexSet(g Graph, cost CostFunc) []int {
	removed := make([]bool, g.NumVertices())
	var out []int
	// Work queue of vertex sets that may still contain cycles.
	queue := [][]int{allVertices(g.NumVertices())}
	for len(queue) > 0 {
		verts := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		sub, fromSub := subgraph(g, verts, removed)
		for _, comp := range StronglyConnectedComponents(sub) {
			if len(comp) < 2 {
				continue // no self-loops exist in CRWI digraphs
			}
			// Delete the best-scoring vertex of this component.
			best, bestScore := -1, -1.0
			inDeg, outDeg := degreesWithin(sub, comp)
			for _, v := range comp {
				score := float64(inDeg[v]*outDeg[v]+1) / float64(cost(fromSub[v])+1)
				if score > bestScore {
					best, bestScore = v, score
				}
			}
			victim := fromSub[best]
			removed[victim] = true
			out = append(out, victim)
			// The component minus the victim may still be cyclic.
			rest := make([]int, 0, len(comp)-1)
			for _, v := range comp {
				if v != best {
					rest = append(rest, fromSub[v])
				}
			}
			queue = append(queue, rest)
		}
	}
	return out
}

func allVertices(n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = k
	}
	return out
}

// subgraph builds the induced subgraph on verts minus removed vertices,
// returning it and the mapping from subgraph index to original vertex.
func subgraph(g Graph, verts []int, removed []bool) (*Digraph, []int) {
	toSub := make(map[int]int, len(verts))
	var fromSub []int
	for _, v := range verts {
		if removed[v] {
			continue
		}
		toSub[v] = len(fromSub)
		fromSub = append(fromSub, v)
	}
	sub := New(len(fromSub))
	for _, v := range fromSub {
		for _, w := range g.Succ(v) {
			if sw, ok := toSub[int(w)]; ok {
				sub.AddEdge(toSub[v], sw)
			}
		}
	}
	return sub, fromSub
}

// degreesWithin counts in/out degrees restricted to the component.
func degreesWithin(g Graph, comp []int) (in, out map[int]int) {
	member := make(map[int]bool, len(comp))
	for _, v := range comp {
		member[v] = true
	}
	in = make(map[int]int, len(comp))
	out = make(map[int]int, len(comp))
	for _, v := range comp {
		for _, w := range g.Succ(v) {
			if member[int(w)] {
				out[v]++
				in[int(w)]++
			}
		}
	}
	return in, out
}
