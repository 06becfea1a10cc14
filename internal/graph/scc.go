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
func (s *SCCScratch) Components(g *CSR) (verts, offs []int32) {
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
func StronglyConnectedComponents(g *CSR) [][]int {
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
