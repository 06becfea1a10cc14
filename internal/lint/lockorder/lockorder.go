// Package lockorder builds the module-wide mutex acquisition digraph and
// reports cycles — the static form of the deadlock the store and
// netupdate packages flirt with whenever two code paths take the same two
// locks in opposite orders.
//
// Every sync.Mutex/sync.RWMutex the module can name gets a stable string
// identity: "pkgpath.Type.field" for a mutex struct field,
// "pkgpath.var" for a package-level mutex variable (function-local
// mutexes are unshared and ignored). Within each function the analyzer
// tracks the lexically held set: Lock/RLock pushes (RLock is an
// acquisition for ordering purposes — reader/writer pairs deadlock just
// as well), a direct Unlock/RUnlock pops, and a deferred unlock does not
// (it runs at function exit, so the lock is held for the remainder of the
// body — exactly the dominant idiom here). Acquiring B while holding A
// records the edge A → B. Function literals get a fresh held context:
// a closure's body runs at an unknown time, not under the locks its
// encloser happens to hold at the definition site.
//
// The analysis is interprocedural: each function exports an AcquiresFact
// (the mutexes it may take, transitively, computed bottom-up over
// call-graph SCCs), so a call made while holding A contributes A → x for
// every x the callee may acquire, across package boundaries. Each package
// exports its edges as an EdgesFact; when a package is analyzed, its own
// edges are combined with every fact exported so far and any strongly
// connected component of the combined digraph is a potential deadlock. A
// cycle is reported in the package that contributes an edge to it, at
// that edge's acquisition site, exactly once per edge.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ipdelta/internal/graph"
	"ipdelta/internal/lint/analysis"
	"ipdelta/internal/lint/passes/callgraph"
)

// AcquiresFact lists the mutex identities a function may acquire,
// directly or through any static callee.
type AcquiresFact struct {
	IDs []string
}

// AFact marks AcquiresFact as a Fact.
func (*AcquiresFact) AFact() {}

// EdgesFact is a package's contribution to the global acquisition order:
// From was held when To was acquired.
type EdgesFact struct {
	Edges []LockEdge
}

// AFact marks EdgesFact as a Fact.
func (*EdgesFact) AFact() {}

// LockEdge is one ordered acquisition pair.
type LockEdge struct {
	From, To string
}

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "builds the cross-package mutex acquisition digraph and flags " +
		"cycles (potential deadlocks) at the acquisition site",
	Requires:  []*analysis.Analyzer{callgraph.Analyzer},
	FactTypes: []analysis.Fact{(*AcquiresFact)(nil), (*EdgesFact)(nil)},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	// Phase 1: per-function acquire sets, bottom-up with an SCC fixpoint,
	// folding in callee sets (same-package summaries or imported facts).
	cg := pass.ResultOf[callgraph.Analyzer].(*callgraph.Result)
	acquires := map[*types.Func]map[string]bool{}
	for _, comp := range cg.BottomUp {
		for _, node := range comp {
			acquires[node.Obj] = localAcquires(pass, node.Decl)
		}
		for changed := true; changed; {
			changed = false
			for _, node := range comp {
				set := acquires[node.Obj]
				for _, call := range node.Static {
					for _, id := range calleeAcquires(pass, acquires, call.Callee) {
						if !set[id] {
							set[id] = true
							changed = true
						}
					}
				}
			}
		}
		for _, node := range comp {
			pass.ExportObjectFact(node.Obj, &AcquiresFact{IDs: sortedKeys(acquires[node.Obj])})
		}
	}

	// Phase 2: walk each function with held-set tracking, recording
	// ordered pairs. Positions are kept for this package's edges so a
	// cycle can be reported at a concrete acquisition site.
	edgePos := map[LockEdge]token.Pos{}
	for _, comp := range cg.BottomUp {
		for _, node := range comp {
			walkHeld(pass, acquires, node.Decl.Body, nil, edgePos)
		}
	}

	var ownEdges []LockEdge
	for e := range edgePos {
		ownEdges = append(ownEdges, e)
	}
	sort.Slice(ownEdges, func(i, j int) bool {
		if ownEdges[i].From != ownEdges[j].From {
			return ownEdges[i].From < ownEdges[j].From
		}
		return ownEdges[i].To < ownEdges[j].To
	})
	pass.ExportPackageFact(&EdgesFact{Edges: ownEdges})

	// Phase 3: combine with the edges of every package analyzed before
	// this one and look for strongly connected components.
	all := map[LockEdge]bool{}
	for _, e := range ownEdges {
		all[e] = true
	}
	for _, pf := range pass.AllPackageFacts() {
		if ef, ok := pf.Fact.(*EdgesFact); ok {
			for _, e := range ef.Edges {
				all[e] = true
			}
		}
	}
	reportCycles(pass, all, edgePos)
	return nil, nil
}

// reportCycles condenses the combined digraph with the repository's
// Tarjan SCC and reports, for each cyclic component, every edge this
// package contributed to it.
func reportCycles(pass *analysis.Pass, all map[LockEdge]bool, own map[LockEdge]token.Pos) {
	ids := map[string]int{}
	var names []string
	intern := func(s string) int {
		if i, ok := ids[s]; ok {
			return i
		}
		ids[s] = len(names)
		names = append(names, s)
		return len(names) - 1
	}
	var edges [][2]int32
	for e := range all {
		edges = append(edges, [2]int32{int32(intern(e.From)), int32(intern(e.To))})
	}
	g := graph.FromEdges(len(names), edges)
	var scratch graph.SCCScratch
	verts, offs := scratch.Components(g)
	comp := make([]int, len(names))
	cyclic := make([]bool, len(offs)-1)
	for k := 0; k+1 < len(offs); k++ {
		members := verts[offs[k]:offs[k+1]]
		for _, v := range members {
			comp[v] = k
		}
		if len(members) > 1 {
			cyclic[k] = true
		}
	}
	// A self-loop (reacquiring a held mutex) is a cycle its singleton
	// component does not reveal; catch it from the edge list.
	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	for e, pos := range own {
		if e.From == e.To {
			findings = append(findings, finding{pos, fmt.Sprintf(
				"%s is acquired while already held; with sync.Mutex this deadlocks, with RWMutex it deadlocks under writer pressure", e.From)})
			continue
		}
		k := comp[ids[e.From]]
		if k == comp[ids[e.To]] && cyclic[k] {
			members := verts[offs[k]:offs[k+1]]
			cycle := make([]string, 0, len(members))
			for _, v := range members {
				cycle = append(cycle, names[v])
			}
			sort.Strings(cycle)
			findings = append(findings, finding{pos, fmt.Sprintf(
				"acquiring %s while holding %s completes a lock-order cycle among {%s}; some other path takes these locks in the opposite order",
				e.To, e.From, strings.Join(cycle, ", "))})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// calleeAcquires resolves a callee's acquire set: same-package summary if
// available, imported fact otherwise. External functions without facts are
// assumed lock-free (the stdlib's internal locks are invisible and
// uninteresting to this ordering).
func calleeAcquires(pass *analysis.Pass, acquires map[*types.Func]map[string]bool, callee *types.Func) []string {
	if set, ok := acquires[callee]; ok {
		return sortedKeys(set)
	}
	var fact AcquiresFact
	if pass.ImportObjectFact(callee, &fact) {
		return fact.IDs
	}
	return nil
}

// localAcquires collects the mutex IDs locked anywhere in fd, including
// inside its function literals.
func localAcquires(pass *analysis.Pass, fd *ast.FuncDecl) map[string]bool {
	set := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, kind := lockOp(pass, call); kind == opLock {
				set[id] = true
			}
		}
		return true
	})
	return set
}

type opKind int

const (
	opNone opKind = iota
	opLock
	opUnlock
)

// lockOp classifies call as a Lock/RLock or Unlock/RUnlock on a nameable
// mutex and returns the mutex identity.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (string, opKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	var kind opKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", opNone
	}
	recv := ast.Unparen(sel.X)
	if !isMutexType(pass.TypeOf(recv)) {
		return "", opNone
	}
	id, ok := mutexID(pass, recv)
	if !ok {
		return "", opNone
	}
	return id, kind
}

// mutexID names the mutex denoted by e: "pkgpath.Type.field" for a field
// of a named struct, "pkgpath.var" for a package-level variable. Local
// mutex values are unshared and yield no identity.
func mutexID(pass *analysis.Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, ok := pass.ObjectOf(e).(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", false
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return "", false // function-local mutex
		}
		return obj.Pkg().Path() + "." + obj.Name(), true
	case *ast.SelectorExpr:
		field, ok := pass.ObjectOf(e.Sel).(*types.Var)
		if !ok || field.Pkg() == nil {
			return "", false
		}
		// pkg.Var: a package-qualified reference to another package's
		// package-level mutex, named the way its own package names it.
		if x, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := pass.ObjectOf(x).(*types.PkgName); isPkg {
				return field.Pkg().Path() + "." + field.Name(), true
			}
		}
		if !field.IsField() {
			return "", false
		}
		// Prefer the named type of the immediate receiver expression; it
		// is the struct the reader sees in the source.
		if t := pass.TypeOf(e.X); t != nil {
			if named := namedOf(t); named != nil {
				return field.Pkg().Path() + "." + named.Obj().Name() + "." + field.Name(), true
			}
		}
		return field.Pkg().Path() + "." + field.Name(), true
	}
	return "", false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// walkHeld traverses body in source order maintaining the held set and
// recording acquisition edges into edgePos (first position wins). held is
// the caller's held list; function literals restart from empty.
func walkHeld(pass *analysis.Pass, acquires map[*types.Func]map[string]bool,
	body ast.Node, held []string, edgePos map[LockEdge]token.Pos) {

	record := func(from, to string, pos token.Pos) {
		e := LockEdge{From: from, To: to}
		if _, ok := edgePos[e]; !ok {
			edgePos[e] = pos
		}
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.FuncLit:
				saved := held
				held = nil
				walk(s.Body)
				held = saved
				return false
			case *ast.DeferStmt:
				// A deferred unlock releases at function exit; the lock
				// stays held for the lexical remainder. A deferred Lock
				// (rare, pathological) still counts as an acquisition.
				if id, kind := lockOp(pass, s.Call); kind == opUnlock {
					_ = id
					return false
				}
				return true
			case *ast.CallExpr:
				if id, kind := lockOp(pass, s); kind != opNone {
					switch kind {
					case opLock:
						for _, h := range held {
							record(h, id, s.Pos())
						}
						held = append(held, id)
					case opUnlock:
						for i := len(held) - 1; i >= 0; i-- {
							if held[i] == id {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					}
					return true
				}
				// Static call while holding locks: the callee may acquire
				// everything in its summary.
				if callee := staticCallee(pass, s); callee != nil && len(held) > 0 {
					for _, id := range calleeAcquires(pass, acquires, callee) {
						for _, h := range held {
							record(h, id, s.Pos())
						}
					}
				}
			}
			return true
		})
	}
	walk(body)
}

// staticCallee resolves the called *types.Func of a direct call, or nil
// for dynamic calls, builtins, and conversions.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := pass.ObjectOf(fun.Sel).(*types.Func)
		return f
	}
	return nil
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
