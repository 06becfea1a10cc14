// Package checker is the ipvet analysis driver: it schedules analyzers
// over typechecked packages the way x/tools' separate-compilation drivers
// do, in miniature.
//
// Two orders matter. Within one package, analyzers run in a topological
// order of their Requires graphs, so a pass like callgraph runs before the
// analyzers that consume its result through Pass.ResultOf. Across
// packages, the checker computes the dependency order of the loaded
// packages — dogfooding the repository's own internal/graph CSR builder
// and enhanced topological sort, the same machinery the converter runs
// over CRWI digraphs — and processes dependencies first, carrying each
// analyzer's exported Facts forward. A fact crosses the package boundary
// only through a gob round-trip, which both enforces that fact types stay
// serializable (the x/tools contract) and hands every importer its own
// decoded copy instead of shared mutable state.
package checker

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"

	"ipdelta/internal/graph"
	"ipdelta/internal/lint/analysis"
	"ipdelta/internal/lint/loader"
)

// Diagnostic is one non-suppressed finding with its source positions
// resolved and any suggested fixes flattened to file-offset edits.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	End      token.Position // zero when the analyzer reported no range
	Message  string
	Fixes    []Fix
}

// Fix is one applicable repair: non-overlapping byte-offset edits within
// single files.
type Fix struct {
	Message string
	Edits   []Edit
}

// Edit replaces file bytes [Start, End) with NewText.
type Edit struct {
	File       string
	Start, End int
	NewText    []byte
}

// Run applies the analyzers to the packages and returns the findings in
// source order, //ipvet:ignore suppressions already applied. Facts flow
// between packages in dependency order; results flow between analyzers in
// Requires order.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	order, err := analyzerOrder(analyzers)
	if err != nil {
		return nil, err
	}
	pkgOrder, err := dependencyOrder(pkgs)
	if err != nil {
		return nil, err
	}

	facts := newFactStore()
	// results[pkg][analyzer] — retained only for the package in flight.
	var diags []Diagnostic
	for _, pkg := range pkgOrder {
		results := map[*analysis.Analyzer]any{}
		for _, a := range order {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				ResultOf:  map[*analysis.Analyzer]any{},
			}
			for _, req := range a.Requires {
				pass.ResultOf[req] = results[req]
			}
			installFactAPI(pass, facts, a, pkg.Types)
			a := a // capture for the closure below
			pass.Report = func(d analysis.Diagnostic) {
				if pkg.Ignored(a.Name, d.Pos) {
					return
				}
				diags = append(diags, resolve(pkg.Fset, a.Name, d))
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			results[a] = res
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// resolve flattens an analyzer diagnostic to positions and offset edits.
func resolve(fset *token.FileSet, name string, d analysis.Diagnostic) Diagnostic {
	out := Diagnostic{Analyzer: name, Pos: fset.Position(d.Pos), Message: d.Message}
	if d.End.IsValid() {
		out.End = fset.Position(d.End)
	}
	for _, f := range d.SuggestedFixes {
		fix := Fix{Message: f.Message}
		for _, e := range f.TextEdits {
			p, q := fset.Position(e.Pos), fset.Position(e.End)
			if !e.End.IsValid() {
				q = p
			}
			fix.Edits = append(fix.Edits, Edit{
				File:    p.Filename,
				Start:   p.Offset,
				End:     q.Offset,
				NewText: append([]byte(nil), e.NewText...),
			})
		}
		out.Fixes = append(out.Fixes, fix)
	}
	return out
}

// analyzerOrder returns the Requires-closure of the given analyzers in a
// topological order (dependencies first), rejecting cycles and duplicate
// names.
func analyzerOrder(analyzers []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	var order []*analysis.Analyzer
	state := map[*analysis.Analyzer]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(a *analysis.Analyzer) error
	visit = func(a *analysis.Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("checker: Requires cycle through %q", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	for _, a := range order {
		if seen[a.Name] {
			return nil, fmt.Errorf("checker: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return order, nil
}

// dependencyOrder sorts the loaded packages so that every package follows
// all loaded packages it (transitively) imports. The import graph is built
// in CSR form and ordered with the enhanced topological sort — the same
// code path the converter uses on CRWI digraphs; Go's import rules make
// the graph acyclic, so a broken cycle here is an internal error.
func dependencyOrder(pkgs []*loader.Package) ([]*loader.Package, error) {
	index := map[*types.Package]int{}
	for i, p := range pkgs {
		index[p.Types] = i
	}
	// deps[i] lists the loaded packages reachable from pkgs[i] through the
	// full (transitive) import graph; go/types only records direct imports
	// per package, so reachability is a DFS over types.Package links.
	deps := make([][]int, len(pkgs))
	for i, p := range pkgs {
		seen := map[*types.Package]bool{}
		var walk func(t *types.Package)
		walk = func(t *types.Package) {
			for _, imp := range t.Imports() {
				if seen[imp] {
					continue
				}
				seen[imp] = true
				if j, ok := index[imp]; ok && j != i {
					deps[i] = append(deps[i], j)
				}
				walk(imp)
			}
		}
		walk(p.Types)
	}

	// An edge dep → importer for every dependency.
	var edges [][2]int32
	for i, ds := range deps {
		for _, d := range ds {
			edges = append(edges, [2]int32{int32(d), int32(i)})
		}
	}
	g := graph.FromEdges(len(pkgs), edges)

	res := graph.TopoSort(g, func(int) int64 { return 1 }, graph.LocallyMinimum{})
	if res.CyclesBroken > 0 || len(res.Order) != len(pkgs) {
		return nil, fmt.Errorf("checker: import graph is cyclic (%d cycles)", res.CyclesBroken)
	}
	out := make([]*loader.Package, len(pkgs))
	for k, v := range res.Order {
		out[k] = pkgs[v]
	}
	return out, nil
}

// factStore holds every exported fact, gob-encoded, keyed by fact type
// plus owner (object or package). One store spans the whole Run, which is
// what carries facts from dependency packages to their importers.
type factStore struct {
	objs map[objKey][]byte
	pkgs map[pkgKey][]byte
	// owners preserves export order per fact type for AllObjectFacts /
	// AllPackageFacts determinism.
	objOwners map[reflect.Type][]types.Object
	pkgOwners map[reflect.Type][]*types.Package
}

type objKey struct {
	t   reflect.Type
	obj types.Object
}

type pkgKey struct {
	t   reflect.Type
	pkg *types.Package
}

func newFactStore() *factStore {
	return &factStore{
		objs:      map[objKey][]byte{},
		pkgs:      map[pkgKey][]byte{},
		objOwners: map[reflect.Type][]types.Object{},
		pkgOwners: map[reflect.Type][]*types.Package{},
	}
}

// encodeFact round-trips fact through gob, enforcing serializability.
func encodeFact(fact analysis.Fact) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		return nil, fmt.Errorf("fact %T is not gob-serializable: %w", fact, err)
	}
	return buf.Bytes(), nil
}

func decodeFact(data []byte, into analysis.Fact) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(into)
}

// installFactAPI wires the pass's fact functions to the shared store,
// enforcing that the analyzer declared the fact's type in FactTypes.
func installFactAPI(pass *analysis.Pass, store *factStore, a *analysis.Analyzer, current *types.Package) {
	declared := map[reflect.Type]bool{}
	for _, ft := range a.FactTypes {
		declared[reflect.TypeOf(ft)] = true
	}
	check := func(fact analysis.Fact) reflect.Type {
		t := reflect.TypeOf(fact)
		if !declared[t] {
			panic(fmt.Sprintf("analyzer %q used fact type %v not declared in FactTypes", a.Name, t))
		}
		return t
	}

	pass.ExportObjectFact = func(obj types.Object, fact analysis.Fact) {
		t := check(fact)
		if obj == nil {
			panic(fmt.Sprintf("analyzer %q exported an object fact with nil object", a.Name))
		}
		data, err := encodeFact(fact)
		if err != nil {
			panic(err)
		}
		k := objKey{t: t, obj: obj}
		if _, exists := store.objs[k]; !exists {
			store.objOwners[t] = append(store.objOwners[t], obj)
		}
		store.objs[k] = data
	}
	pass.ImportObjectFact = func(obj types.Object, fact analysis.Fact) bool {
		t := check(fact)
		data, ok := store.objs[objKey{t: t, obj: obj}]
		if !ok {
			return false
		}
		if err := decodeFact(data, fact); err != nil {
			panic(err)
		}
		return true
	}
	pass.ExportPackageFact = func(fact analysis.Fact) {
		t := check(fact)
		data, err := encodeFact(fact)
		if err != nil {
			panic(err)
		}
		k := pkgKey{t: t, pkg: current}
		if _, exists := store.pkgs[k]; !exists {
			store.pkgOwners[t] = append(store.pkgOwners[t], current)
		}
		store.pkgs[k] = data
	}
	pass.ImportPackageFact = func(pkg *types.Package, fact analysis.Fact) bool {
		t := check(fact)
		data, ok := store.pkgs[pkgKey{t: t, pkg: pkg}]
		if !ok {
			return false
		}
		if err := decodeFact(data, fact); err != nil {
			panic(err)
		}
		return true
	}
	pass.AllObjectFacts = func() []analysis.ObjectFact {
		var out []analysis.ObjectFact
		for _, ft := range a.FactTypes {
			t := reflect.TypeOf(ft)
			for _, obj := range store.objOwners[t] {
				fresh := reflect.New(t.Elem()).Interface().(analysis.Fact)
				if err := decodeFact(store.objs[objKey{t: t, obj: obj}], fresh); err != nil {
					panic(err)
				}
				out = append(out, analysis.ObjectFact{Object: obj, Fact: fresh})
			}
		}
		return out
	}
	pass.AllPackageFacts = func() []analysis.PackageFact {
		var out []analysis.PackageFact
		for _, ft := range a.FactTypes {
			t := reflect.TypeOf(ft)
			for _, pkg := range store.pkgOwners[t] {
				fresh := reflect.New(t.Elem()).Interface().(analysis.Fact)
				if err := decodeFact(store.pkgs[pkgKey{t: t, pkg: pkg}], fresh); err != nil {
					panic(err)
				}
				out = append(out, analysis.PackageFact{Package: pkg, Fact: fresh})
			}
		}
		return out
	}
}
