// Package callgraph is a shared analysis pass that computes each
// package's static call graph and hands it to dependent analyzers
// (allocfree, lockorder) through pass.ResultOf. Per function it records
// the resolvable static callees — package functions, methods on concrete
// receivers, and cross-package calls — and the positions of dynamic calls
// (function values, interface methods) that no lexical analysis can
// resolve. Calls made inside a function literal are attributed to the
// enclosing declared function: for the summary-style analyses built on
// this pass, a closure's effects are an over-approximation of the
// encloser's dynamic extent, which errs toward reporting.
//
// The intra-package graph is condensed with internal/graph's Tarjan SCC —
// the same machinery the converter runs over CRWI digraphs — and exposed
// in callee-first order, so bottom-up summary computations (is this
// function allocation-free? which locks does it take?) visit callees
// before callers and handle mutual recursion one component at a time.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ipdelta/internal/graph"
	"ipdelta/internal/lint/analysis"
)

// Analyzer is the callgraph pass.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc:  "computes the package call graph and its SCC condensation for dependent analyzers",
	Run:  run,
}

// Call is one resolved static call site. A call of a generic function or
// of a method of an instantiated generic type resolves to the declared
// (origin) function, which is what carries facts.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
}

// Node is one declared function or method of the package.
type Node struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	// Static lists resolvable call sites in source order, including
	// calls to other packages.
	Static []Call
	// Dynamic lists call sites through function values or interface
	// methods, which summaries cannot follow.
	Dynamic []token.Pos
}

// Result is the pass's output for one package.
type Result struct {
	// Nodes indexes every declared function and method.
	Nodes map[*types.Func]*Node
	// BottomUp groups the package's functions into strongly connected
	// components of the intra-package call graph, callees before
	// callers; mutually recursive functions share a component.
	BottomUp [][]*Node
}

func run(pass *analysis.Pass) (any, error) {
	res := &Result{Nodes: map[*types.Func]*Node{}}
	var order []*Node
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			node := &Node{Obj: obj, Decl: fd}
			collectCalls(pass, fd.Body, node)
			res.Nodes[obj] = node
			order = append(order, node)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Decl.Pos() < order[j].Decl.Pos() })

	// Intra-package condensation via Tarjan: components come out in
	// reverse topological order of the condensation, i.e. callees first.
	index := map[*types.Func]int{}
	for i, n := range order {
		index[n.Obj] = i
	}
	var edges [][2]int32
	for i, n := range order {
		for _, c := range n.Static {
			if j, ok := index[c.Callee]; ok && j != i {
				edges = append(edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	g := graph.FromEdges(len(order), edges)
	// Edges point caller → callee, so Tarjan's natural output order
	// (reverse topological) emits callees before callers.
	for _, comp := range graph.StronglyConnectedComponents(g) {
		nodes := make([]*Node, len(comp))
		for k, v := range comp {
			nodes[k] = order[v]
		}
		res.BottomUp = append(res.BottomUp, nodes)
	}
	return res, nil
}

// collectCalls records every call in body on node, resolving what it can.
func collectCalls(pass *analysis.Pass, body ast.Node, node *Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		// Type conversions are not calls.
		if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
			return true
		}
		// An explicit instantiation, F[T](x) or pkg.F[T, U](x), calls F.
		// Indexing anything else (a slice or map of funcs) yields a
		// variable, which the cases below file as dynamic.
		switch ix := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(ix.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(ix.X)
		}
		switch f := fun.(type) {
		case *ast.Ident:
			switch obj := pass.ObjectOf(f).(type) {
			case *types.Func:
				node.Static = append(node.Static, Call{Callee: obj.Origin(), Pos: call.Pos()})
			case *types.Builtin, *types.TypeName, nil:
				// append/make/len/…, conversions: not calls we track.
			default:
				node.Dynamic = append(node.Dynamic, call.Pos())
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[f]; ok {
				// Method call. Interface dispatch is dynamic; a method
				// on a concrete receiver is static.
				callee, _ := sel.Obj().(*types.Func)
				if callee == nil {
					node.Dynamic = append(node.Dynamic, call.Pos())
					return true
				}
				if types.IsInterface(sel.Recv()) {
					node.Dynamic = append(node.Dynamic, call.Pos())
					return true
				}
				node.Static = append(node.Static, Call{Callee: callee.Origin(), Pos: call.Pos()})
				return true
			}
			// Package-qualified reference: pkg.F.
			switch obj := pass.ObjectOf(f.Sel).(type) {
			case *types.Func:
				node.Static = append(node.Static, Call{Callee: obj.Origin(), Pos: call.Pos()})
			case *types.TypeName, nil:
			default:
				node.Dynamic = append(node.Dynamic, call.Pos())
			}
		default:
			// Call of a call result, function literal invoked in place,
			// index expression, …: dynamic.
			node.Dynamic = append(node.Dynamic, call.Pos())
		}
		return true
	})
}
