package inplace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipdelta/internal/corpus"
	"ipdelta/internal/diff"
	"ipdelta/internal/graph"
)

// strategyConstants returns the exported constants of type Strategy that
// the package's source declares, so a test over every strategy cannot miss
// one added later.
func strategyConstants(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			// A spec with neither type nor values repeats the previous
			// spec's type, as iota blocks do.
			typ := ""
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if vs.Type != nil {
					typ = identName(vs.Type)
				} else if len(vs.Values) > 0 {
					typ = ""
				}
				for _, id := range vs.Names {
					if typ == "Strategy" && id.IsExported() {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// identName returns the name of an identifier expression, or "".
func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestConvertHonoursPolicyUnderEveryStrategy checks that no strategy
// ignores the cycle-breaking policy: under every exported strategy and
// both of the paper's policies, Stats.Policy names the policy in use, and
// on a pair where the two policies convert different byte counts they do
// so under each strategy.
func TestConvertHonoursPolicyUnderEveryStrategy(t *testing.T) {
	strategies := map[string]Strategy{
		"StrategyDFS":   StrategyDFS,
		"StrategySplit": StrategySplit,
	}
	declared := strategyConstants(t)
	if len(declared) == 0 {
		t.Fatal("found no Strategy constants in the package source")
	}
	for _, name := range declared {
		if _, ok := strategies[name]; !ok {
			t.Fatalf("strategy %s is not covered by this test", name)
		}
	}
	if len(strategies) != len(declared) {
		t.Fatalf("test covers %d strategies, the package declares %v", len(strategies), declared)
	}

	chain := corpus.RecordChain(3, 64<<10, 2)
	ref := chain[0]
	d, err := diff.NewLinear().Diff(ref, chain[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range declared {
		converted := map[string]int64{}
		for _, p := range []graph.Policy{graph.LocallyMinimum{}, graph.ConstantTime{}} {
			_, st := convertAndCheck(t, d, ref, WithStrategy(strategies[name]), WithPolicy(p))
			if st.Policy != p.Name() {
				t.Errorf("%s/%s: Stats.Policy = %q", name, p.Name(), st.Policy)
			}
			if st.CyclesBroken == 0 {
				t.Fatalf("%s/%s: the input has no cycle to break", name, p.Name())
			}
			converted[p.Name()] = st.ConvertedBytes
		}
		lm, ct := converted[graph.LocallyMinimum{}.Name()], converted[graph.ConstantTime{}.Name()]
		if lm == ct {
			t.Errorf("%s: both policies convert %d bytes; the policy is inert", name, lm)
		}
	}
}
