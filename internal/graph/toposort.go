package graph

// SortResult is the outcome of a cycle-breaking topological sort.
type SortResult struct {
	// Order lists the surviving vertices so that for every edge u→v with
	// both endpoints surviving, u precedes v.
	Order []int
	// Removed lists the vertices deleted to break cycles, in deletion
	// order.
	Removed []int
	// CycleLens[k] is the length of the cycle whose break deleted
	// Removed[k]; the lengths sum to CycleVertices.
	CycleLens []int
	// CyclesBroken counts the cycles encountered.
	CyclesBroken int
	// CycleVertices sums the lengths of the cycles examined; for the
	// locally-minimum policy this is proportional to the extra work done.
	CycleVertices int
	// RemovedCost sums cost(v) over removed vertices — the compression
	// lost to cycle breaking.
	RemovedCost int64
}

// vertex colors for the DFS.
const (
	white   = 0 // unvisited
	gray    = 1 // on the DFS path
	black   = 2 // finished
	deleted = 3 // removed to break a cycle
)

// topoFrame is one entry of the explicit DFS stack.
type topoFrame struct {
	v    int32
	edge int // next adjacency index to examine
}

// TopoScratch holds the working state of the enhanced topological sort so
// repeated sorts reuse one set of buffers. In steady state a Sort performs
// no allocations. The zero value is ready for use; a TopoScratch must not
// be used concurrently.
type TopoScratch struct {
	color     []byte
	stack     []topoFrame
	postorder []int
	cycle     []int
	res       SortResult
}

// TopoSort runs a depth-first topological sort over g, detecting cycles as
// they are closed and deleting one vertex per cycle chosen by the policy
// (§4.2 of the paper, "enhanced topological sort"). Roots are explored in
// ascending vertex order; since package inplace numbers vertices by write
// offset, ties are resolved in write order just as the paper's algorithm
// sorts its copy commands.
//
// The surviving subgraph is totally ordered: for every edge u→v between
// survivors, u appears before v in Order, satisfying Equation 2 when the
// vertices are copy commands and edges are potential WR conflicts.
func TopoSort(g *CSR, cost CostFunc, policy Policy) *SortResult {
	var ts TopoScratch
	return ts.Sort(g, cost, policy)
}

// Sort is TopoSort over the scratch's reusable buffers. The returned
// result is owned by the scratch and remains valid only until the next
// Sort call.
func (ts *TopoScratch) Sort(g *CSR, cost CostFunc, policy Policy) *SortResult {
	n := g.NumVertices()
	ts.color = growBytes(ts.color, n)
	// Paths, the postorder and the order hold at most n vertices: reserve
	// them once rather than growing them append by append.
	ts.stack = reserve(ts.stack, n)
	ts.postorder = reserve(ts.postorder, n)
	ts.res = SortResult{Order: reserve(ts.res.Order, n), Removed: ts.res.Removed[:0], CycleLens: ts.res.CycleLens[:0]}
	color, res := ts.color, &ts.res

	push := func(v int32) {
		color[v] = gray
		ts.stack = append(ts.stack, topoFrame{v: v})
	}

	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		push(int32(root))
		for len(ts.stack) > 0 {
			top := &ts.stack[len(ts.stack)-1]
			succ := g.Succ(int(top.v))
			if top.edge >= len(succ) {
				color[top.v] = black
				ts.postorder = append(ts.postorder, int(top.v))
				ts.stack = ts.stack[:len(ts.stack)-1]
				continue
			}
			w := succ[top.edge]
			top.edge++
			switch color[w] {
			case white:
				push(w)
			case gray:
				// Edge top.v → w closes a cycle running from w along the
				// DFS path to top.v. Collect it in path order.
				at := len(ts.stack) - 1
				for ts.stack[at].v != w {
					at--
				}
				ts.cycle = ts.cycle[:0]
				for k := at; k < len(ts.stack); k++ {
					ts.cycle = append(ts.cycle, int(ts.stack[k].v))
				}
				res.CyclesBroken++
				res.CycleVertices += len(ts.cycle)
				victim := policy.SelectVictim(ts.cycle, cost)
				res.Removed = append(res.Removed, victim)
				res.CycleLens = append(res.CycleLens, len(ts.cycle))
				res.RemovedCost += cost(victim)
				color[victim] = deleted

				// Unwind the DFS path back to just below the victim. The
				// vertices above the victim return to white with fresh
				// edge iterators; they will be re-explored along paths
				// that avoid the deleted vertex.
				vat := at
				for ts.stack[vat].v != int32(victim) {
					vat++
				}
				for k := vat + 1; k < len(ts.stack); k++ {
					color[ts.stack[k].v] = white
				}
				ts.stack = ts.stack[:vat]
			}
		}
	}

	// Reverse postorder = topological order.
	for k := len(ts.postorder) - 1; k >= 0; k-- {
		res.Order = append(res.Order, ts.postorder[k])
	}
	return res
}

// VerifyTopological checks that order together with removed is a valid
// outcome for g: every vertex appears exactly once in order or removed,
// and every edge between surviving vertices goes forward in order. It
// returns false otherwise. Intended for tests and self-checks.
func VerifyTopological(g *CSR, res *SortResult) bool {
	n := g.NumVertices()
	pos := make([]int, n)
	for k := range pos {
		pos[k] = -1
	}
	seen := 0
	for k, v := range res.Order {
		if v < 0 || v >= n || pos[v] != -1 {
			return false
		}
		pos[v] = k
		seen++
	}
	removed := make([]bool, n)
	for _, v := range res.Removed {
		if v < 0 || v >= n || removed[v] || pos[v] != -1 {
			return false
		}
		removed[v] = true
		seen++
	}
	if seen != n {
		return false
	}
	for u := 0; u < n; u++ {
		if removed[u] {
			continue
		}
		for _, w := range g.Succ(u) {
			if removed[w] {
				continue
			}
			if pos[u] >= pos[w] {
				return false
			}
		}
	}
	return true
}
