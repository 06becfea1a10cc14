package inplace

import (
	"cmp"
	"math"
	"slices"

	"ipdelta/internal/codec"
	"ipdelta/internal/delta"
	"ipdelta/internal/graph"
)

// Conflict-boundary splitting (StrategySplit). The paper breaks a CRWI
// cycle by converting a whole copy to an add, even when only a few bytes
// of its read interval are overwritten. Splitting first cuts every copy of
// a cyclic strongly connected component at the write boundaries of the
// same-component copies its read interval meets, then runs the unchanged
// policy sort over the pieces: a cycle now costs only the piece that
// closes it. Pieces that survive next to each other are merged back into
// one copy wherever that is provably safe, and adjacent converted pieces
// become one add.
//
// Splitting is decided per component against the paper's resolution of
// the same component (the DFS victims inside it), and the delta as a
// whole must encode smaller than the paper's before it is kept, so a
// split conversion is never larger than StrategyDFS's, and a delta where
// no component is re-resolved comes out byte-identical to it.

// minPiece is the shortest piece splitting cuts a copy into: a cut that
// would leave a shorter piece is skipped. Below it, the extra command's
// header (4–8 bytes in the compact format) costs about as much as the
// literal bytes the piece could save.
const minPiece = 32

// component is the split conversion's view of one strongly connected
// component of the CRWI digraph.
type component struct {
	size   int   // vertices; cyclic when ≥ 2
	minLen int64 // smallest copy, for cyclic components
	cut    bool  // some copy in it is cut and its split resolution may win
	lost   int64 // piece bytes the sort over the pieces deletes
	split  bool  // the split resolution is the one emitted
	dfs    resolution
	pieces resolution
}

// resolution tallies one way of resolving a cyclic component: the
// estimated encoded cost of its commands and what it sacrifices.
type resolution struct {
	compact, offsets int64 // estimated bytes in the compact/offsets formats
	converted        int   // add commands made from copy data
	convertedBytes   int64
	cycles           int // cycles broken
	cycleVertices    int
	removedCost      int64 // Σ l − |f| over the converted data
}

// addCopy charges one copy command.
//
//ipvet:allocfree
func (r *resolution) addCopy(c delta.Command) {
	r.compact += int64(codec.UvarintLen(uint64(c.To)) + codec.UvarintLen(uint64(c.Length)) + codec.VarintLen(c.From-c.To))
	r.offsets += int64(1 + codec.UvarintLen(uint64(c.From)) + codec.UvarintLen(uint64(c.To)) + codec.UvarintLen(uint64(c.Length)))
}

// addAdd charges copy c converted to an add. The compact add's gap field
// depends on its neighbour in the add section; it is estimated at one
// byte here, and the whole-delta size check settles the exact bytes.
//
//ipvet:allocfree
func (r *resolution) addAdd(c delta.Command) {
	l := int64(codec.UvarintLen(uint64(c.Length)))
	r.compact += 1 + l + c.Length
	r.offsets += 1 + int64(codec.UvarintLen(uint64(c.To))) + l + c.Length
	r.converted++
	r.convertedBytes += c.Length
	r.removedCost += c.Length - int64(codec.UvarintLen(uint64(c.From)))
}

// pieceGroup is a run of adjacent pieces of one copy emitted as one
// command: a copy emitted at position at of the piece order, or, when at
// is negative, converted to one add. cmd is copy-shaped either way.
type pieceGroup struct {
	cmd  delta.Command
	at   int
	comp int32
}

// splitScratch holds the split strategy's working memory, reused across
// conversions like the rest of the Converter.
type splitScratch struct {
	scc     graph.SCCScratch
	comp    []int32 // per copy: component index, in Tarjan's order
	comps   []component
	victim  []bool  // per copy: deleted by the paper's sort
	cutAt   []int   // per copy: its first cut in cuts; n+1 entries
	cuts    []int64 // read offsets to cut at
	pieceAt []int   // per copy: its first piece; n+1 entries
	pieces  []delta.Command
	label   []int32 // per piece: its component
	crwi    crwiScratch
	topo    graph.TopoScratch
	cost    graph.CostFunc
	porder  []int // the piece order (owned by topo)
	pos     []int // per piece: position in porder, -1 when deleted
	groupAt []int // per position: the group emitted there, or -1
	groups  []pieceGroup
	items   []int // emission order: copy v as v, group g as -(g+1)
	seq     []delta.Command
	conv    []delta.Command
}

// resolve computes the split resolution of every cyclic component that
// has a cut and decides, per component, whether it beats the paper's
// resolution res of the same digraph g. It reports whether any component
// is to be emitted split.
func (sp *splitScratch) resolve(cv *Converter, g *graph.CSR, res *graph.SortResult) bool {
	copies := cv.copies
	n := len(copies)
	verts, offs := sp.scc.Components(g)
	k := len(offs) - 1
	sp.comp = growIndex(sp.comp, n)
	if cap(sp.comps) < k {
		sp.comps = make([]component, k)
	} else {
		sp.comps = sp.comps[:k]
		clear(sp.comps)
	}
	cyclic := false
	for c := 0; c < k; c++ {
		sp.comps[c].size = int(offs[c+1] - offs[c])
		cyclic = cyclic || sp.comps[c].size > 1
		for _, v := range verts[offs[c]:offs[c+1]] {
			sp.comp[v] = int32(c)
		}
	}
	if !cyclic {
		return false
	}

	// The paper's resolution, attributed per component: every victim sits
	// on a cycle, so inside a cyclic component.
	sp.victim = growBools(sp.victim, n)
	for idx, v := range res.Removed {
		sp.victim[v] = true
		r := &sp.comps[sp.comp[v]].dfs
		r.addAdd(copies[v])
		r.cycles++
		r.cycleVertices += res.CycleLens[idx]
	}
	for v, c := range copies {
		cc := &sp.comps[sp.comp[v]]
		if cc.size < 2 {
			continue
		}
		if cc.minLen == 0 || c.Length < cc.minLen {
			cc.minLen = c.Length
		}
		if !sp.victim[v] {
			cc.dfs.addCopy(c)
		}
	}

	// Cut each copy of a cyclic component at the write boundaries of the
	// same-component copies its read meets: crwi.firstW/endW already hold
	// that write range, and its boundaries come in increasing order.
	sp.cutAt = growInts(sp.cutAt, n+1)
	sp.cuts = sp.cuts[:0]
	anyCut := false
	for i, c := range copies {
		sp.cutAt[i] = len(sp.cuts)
		ci := sp.comp[i]
		if sp.comps[ci].size < 2 {
			continue
		}
		last, end := c.From, c.From+c.Length
		for j := cv.crwi.firstW[i]; j < cv.crwi.endW[i]; j++ {
			if int(j) == i || sp.comp[j] != ci {
				continue
			}
			w := copies[j]
			for _, p := range [2]int64{w.To, w.To + w.Length} {
				if p-last >= minPiece && end-p >= minPiece {
					sp.cuts = append(sp.cuts, p)
					last = p
				}
			}
		}
		if sp.cutAt[i] < len(sp.cuts) {
			sp.comps[ci].cut = true
			anyCut = true
		}
	}
	sp.cutAt[n] = len(sp.cuts)
	if !anyCut {
		return false
	}

	// Pieces of every copy of a component with a cut, in write order.
	sp.pieceAt = growInts(sp.pieceAt, n+1)
	sp.pieces, sp.label = reserve(sp.pieces, n+len(sp.cuts)), reserve(sp.label, n+len(sp.cuts))
	for i, c := range copies {
		sp.pieceAt[i] = len(sp.pieces)
		if !sp.comps[sp.comp[i]].cut {
			continue
		}
		lo := c.From
		for _, p := range sp.cuts[sp.cutAt[i]:sp.cutAt[i+1]] {
			sp.pieces = append(sp.pieces, delta.NewCopy(lo, c.To+lo-c.From, p-lo))
			sp.label = append(sp.label, sp.comp[i])
			lo = p
		}
		sp.pieces = append(sp.pieces, delta.NewCopy(lo, c.To+lo-c.From, c.From+c.Length-lo))
		sp.label = append(sp.label, sp.comp[i])
	}
	sp.pieceAt[n] = len(sp.pieces)

	// The unchanged policy sort over the pieces' CRWI digraph. Edges
	// between components are dropped: components are emitted in
	// condensation order, which satisfies them all.
	pg := sp.pieceGraph(cv)
	if sp.cost == nil {
		sp.cost = func(v int) int64 {
			c := &sp.pieces[v]
			return c.Length - int64(codec.UvarintLen(uint64(c.From)))
		}
	}
	pres := sp.topo.Sort(pg, sp.cost, cv.o.policy)
	sp.porder = pres.Order
	sp.pos = growInts(sp.pos, len(sp.pieces))
	for p := range sp.pos {
		sp.pos[p] = -1
	}
	for at, p := range pres.Order {
		sp.pos[p] = at
	}
	for idx, p := range pres.Removed {
		r := &sp.comps[sp.label[p]].pieces
		r.cycles++
		r.cycleVertices += pres.CycleLens[idx]
		sp.comps[sp.label[p]].lost += sp.pieces[p].Length
	}
	// Merging cannot make a split resolution cheaper than one command per
	// copy (at least 2 bytes compact, 3 offsets) plus the literal bytes of
	// the deleted pieces. A component where that bound already reaches
	// the paper's cost keeps the paper's resolution, unmerged.
	for c := range sp.comps {
		cc := &sp.comps[c]
		n := int64(cc.size)
		cc.cut = cc.cut && cc.dfs.compact-cc.lost > 2*n && cc.dfs.offsets-cc.lost > 3*n
	}

	sp.groupAt = growInts(sp.groupAt, len(sp.pieces))
	for at := range sp.groupAt {
		sp.groupAt[at] = -1
	}
	sp.groups = reserve(sp.groups, len(sp.pieces))
	for i, c := range copies {
		if s, e := sp.pieceAt[i], sp.pieceAt[i+1]; s < e && sp.comps[sp.comp[i]].cut {
			sp.merge(pg, sp.comp[i], s, e, c.To >= c.From)
		}
	}

	split := false
	for c := range sp.comps {
		cc := &sp.comps[c]
		cc.split = cc.cut && cc.pieces.compact < cc.dfs.compact && cc.pieces.offsets < cc.dfs.offsets
		split = split || cc.split
	}
	return split
}

// pieceGraph builds the CRWI digraph over the pieces without sorting
// them by read offset. A piece's read lies inside its copy's read, so the
// writes it meets are pieces of the copies whose writes that copy's read
// meets: the piece range [pieceAt[firstW[i]], pieceAt[endW[i]]), in write
// order. The pieces of copy i ascend in read offset too, so one pointer
// per copy walks that range, as the sweep-line build's pointer walks all
// copies. The edge set, successor order included, is the reference
// builder's over the pieces restricted to edges inside a component.
func (sp *splitScratch) pieceGraph(cv *Converter) *graph.CSR {
	pr := &sp.crwi
	pr.firstW = growIndex(pr.firstW, len(sp.pieces))
	pr.endW = growIndex(pr.endW, len(sp.pieces))
	for i := range cv.copies {
		hi := sp.pieceAt[cv.crwi.endW[i]]
		w := sp.pieceAt[cv.crwi.firstW[i]]
		for p := sp.pieceAt[i]; p < sp.pieceAt[i+1]; p++ {
			readLo, readHi := sp.pieces[p].From, sp.pieces[p].From+sp.pieces[p].Length
			for w < hi && readLo-sp.pieces[w].To >= sp.pieces[w].Length {
				w++
			}
			j := w
			for j < hi && sp.pieces[j].To < readHi {
				j++
			}
			pr.firstW[p], pr.endW[p] = int32(w), int32(j)
		}
	}
	return pr.edges(sp.label)
}

// merge groups the pieces [s, e) of one copy into the commands emitted for
// them. Adjacent deleted pieces become one add. Adjacent surviving pieces
// u, v become one copy emitted at L = max(pos(u), pos(v)) when every
// successor of the group outside it sits after L: the merged copy then
// still runs before everything that overwrites its read interval, and
// after everything that reads its write interval (those preceded each
// piece already). minSucc is kept incrementally, so a piece joining the
// group must not be a successor already counted against it (that would
// only reject a valid merge, never accept an unsafe one). All pieces of a
// copy share one displacement t − f, so within a copy edges run only from
// higher to lower pieces when t > f and from lower to higher when t < f;
// walking upward in the first case and downward in the second grows the
// group away from the pieces its members must precede.
func (sp *splitScratch) merge(g *graph.CSR, comp int32, s, e int, up bool) {
	open, runOpen := false, false
	var lo, hi, rlo, rhi int
	var at, minSucc int
	p, step := s, 1
	if !up {
		p, step = e-1, -1
	}
	for ; p >= s && p < e; p += step {
		if sp.pos[p] < 0 {
			if open {
				sp.closeGroup(lo, hi, at, comp)
				open = false
			}
			if !runOpen {
				rlo, rhi, runOpen = p, p, true
			}
			rlo, rhi = min(rlo, p), max(rhi, p)
			continue
		}
		if runOpen {
			sp.closeGroup(rlo, rhi, -1, comp)
			runOpen = false
		}
		if open {
			nlo, nhi := min(lo, p), max(hi, p)
			m := min(minSucc, sp.minSucc(g, p, nlo, nhi))
			nat := max(at, sp.pos[p])
			if m > nat {
				lo, hi, at, minSucc = nlo, nhi, nat, m
				continue
			}
			sp.closeGroup(lo, hi, at, comp)
		}
		open = true
		lo, hi, at = p, p, sp.pos[p]
		minSucc = sp.minSucc(g, p, p, p)
	}
	if open {
		sp.closeGroup(lo, hi, at, comp)
	}
	if runOpen {
		sp.closeGroup(rlo, rhi, -1, comp)
	}
}

// minSucc returns the earliest position of a surviving successor of piece
// p outside the group [lo, hi], or MaxInt if there is none.
//
//ipvet:allocfree
func (sp *splitScratch) minSucc(g *graph.CSR, p, lo, hi int) int {
	m := math.MaxInt
	for _, w := range g.Succ(p) {
		if int(w) >= lo && int(w) <= hi {
			continue
		}
		if q := sp.pos[w]; q >= 0 && q < m {
			m = q
		}
	}
	return m
}

// closeGroup records the pieces [lo, hi] of one copy as one command: a
// copy emitted at position at, or an add when at is negative.
func (sp *splitScratch) closeGroup(lo, hi, at int, comp int32) {
	first, last := sp.pieces[lo], sp.pieces[hi]
	cmd := delta.NewCopy(first.From, first.To, last.To+last.Length-first.To)
	r := &sp.comps[comp].pieces
	if at < 0 {
		r.addAdd(cmd)
	} else {
		r.addCopy(cmd)
		sp.groupAt[at] = len(sp.groups)
	}
	sp.groups = append(sp.groups, pieceGroup{cmd: cmd, at: at, comp: comp})
}

// sequence returns the copies of the mixed resolution in emission order:
// components in condensation order (Tarjan numbers them in reverse), each
// component's commands in its chosen resolution's order — the paper's
// survivors in the order of the paper's sort, or the split groups in
// piece order. Every edge between components runs forward in condensation
// order, so the sequence satisfies Equation 2.
func (sp *splitScratch) sequence(cv *Converter, order []int) []delta.Command {
	sp.items = reserve(sp.items, len(order)+len(sp.groups))
	for _, v := range order {
		if !sp.comps[sp.comp[v]].split {
			sp.items = append(sp.items, v)
		}
	}
	for at := range sp.porder {
		if gi := sp.groupAt[at]; gi >= 0 && sp.comps[sp.groups[gi].comp].split {
			sp.items = append(sp.items, -(gi + 1))
		}
	}
	// Components in condensation order: Tarjan numbers them in reverse.
	compOf := func(it int) int32 {
		if it >= 0 {
			return sp.comp[it]
		}
		return sp.groups[-it-1].comp
	}
	slices.SortStableFunc(sp.items, func(a, b int) int { return cmp.Compare(compOf(b), compOf(a)) })
	sp.seq = reserve(sp.seq, len(sp.items))
	for _, it := range sp.items {
		if it >= 0 {
			sp.seq = append(sp.seq, cv.copies[it])
		} else {
			sp.seq = append(sp.seq, sp.groups[-it-1].cmd)
		}
	}
	return sp.seq
}

// victims returns the copies the mixed resolution converts: the paper's
// victims outside split components, in deletion order, then the split
// components' converted runs.
func (sp *splitScratch) victims(cv *Converter, removed []int) []delta.Command {
	sp.conv = reserve(sp.conv, len(removed)+len(sp.groups))
	for _, v := range removed {
		if !sp.comps[sp.comp[v]].split {
			sp.conv = append(sp.conv, cv.copies[v])
		}
	}
	for _, gr := range sp.groups {
		if gr.at < 0 && sp.comps[gr.comp].split {
			sp.conv = append(sp.conv, gr.cmd)
		}
	}
	return sp.conv
}

// chosenStats rewrites the cycle statistics for the mixed resolution.
func (sp *splitScratch) chosenStats(st *Stats) {
	st.CyclesBroken, st.CycleVertices, st.RemovedCost = 0, 0, 0
	for c := range sp.comps {
		r := sp.comps[c].chosen()
		st.CyclesBroken += r.cycles
		st.CycleVertices += r.cycleVertices
		st.RemovedCost += r.removedCost
		if sp.comps[c].split {
			st.SplitComponents++
		}
	}
}

// reject falls back to the paper's resolution in every component.
func (sp *splitScratch) reject() {
	for c := range sp.comps {
		sp.comps[c].split = false
	}
}

// chosen returns the resolution the component is emitted with.
func (c *component) chosen() *resolution {
	if c.split {
		return &c.pieces
	}
	return &c.dfs
}

// growInts returns s resized to n elements, reusing capacity. Contents
// are unspecified; callers overwrite every element.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
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
