package loader

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadIgnores loads the fixture package and returns it with a helper that
// turns a marker substring into the token.Pos of that source line.
func loadIgnores(t *testing.T) (*Package, func(marker string, lineDelta int) token.Pos) {
	t.Helper()
	l, err := New(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir("testdata/src/ignores", "ignores")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	filename := filepath.Join(pkg.Dir, "ignores.go")
	src, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	lines := strings.Split(string(src), "\n")
	tf := pkg.Fset.File(pkg.Files[0].Pos())
	posAt := func(marker string, lineDelta int) token.Pos {
		for i, line := range lines {
			if strings.Contains(line, marker) {
				return tf.LineStart(i + 1 + lineDelta)
			}
		}
		t.Fatalf("marker %q not found in fixture", marker)
		return token.NoPos
	}
	return pkg, posAt
}

// TestIgnoreIsAnalyzerScoped proves that a directive naming one analyzer
// does not mute a different analyzer reporting on the same line — the
// regression the unscoped wildcard behaviour used to allow.
func TestIgnoreIsAnalyzerScoped(t *testing.T) {
	pkg, posAt := loadIgnores(t)
	pos := posAt("marker-trailing", 0)
	if !pkg.Ignored("offsetsafe", pos) {
		t.Errorf("offsetsafe should be suppressed on the trailing-directive line")
	}
	if pkg.Ignored("aliascheck", pos) {
		t.Errorf("aliascheck must NOT be suppressed by an offsetsafe-scoped directive on the same line")
	}
	if pkg.Ignored("errpropagate", pos) {
		t.Errorf("errpropagate must NOT be suppressed by an offsetsafe-scoped directive")
	}
}

// TestIgnoreLineScope pins the line coverage: trailing directives cover
// their own line only; standalone directives cover the next line only.
func TestIgnoreLineScope(t *testing.T) {
	pkg, posAt := loadIgnores(t)

	if pkg.Ignored("offsetsafe", posAt("marker-trailing", 1)) {
		t.Errorf("trailing directive must not leak to the following line")
	}
	if pkg.Ignored("offsetsafe", posAt("marker-trailing", -1)) {
		t.Errorf("trailing directive must not leak to the preceding line")
	}

	if !pkg.Ignored("aliascheck", posAt("marker-standalone", 1)) {
		t.Errorf("standalone directive should cover the next line")
	}
	if pkg.Ignored("aliascheck", posAt("marker-standalone", 0)) {
		t.Errorf("standalone directive should not cover its own (comment-only) line")
	}
	if pkg.Ignored("aliascheck", posAt("marker-standalone", 2)) {
		t.Errorf("standalone directive must not leak two lines down")
	}
}

// TestIgnoreForms covers the multi-name, wildcard, bare and non-directive
// spellings.
func TestIgnoreForms(t *testing.T) {
	pkg, posAt := loadIgnores(t)

	multi := posAt("marker-multi", 0)
	for _, name := range []string{"offsetsafe", "errpropagate"} {
		if !pkg.Ignored(name, multi) {
			t.Errorf("%s should be suppressed by the comma-list directive", name)
		}
	}
	if pkg.Ignored("locksafe", multi) {
		t.Errorf("locksafe is not named in the comma list and must not be suppressed")
	}

	wild := posAt("marker-wild", 0)
	if !pkg.Ignored("anything", wild) {
		t.Errorf("explicit * should suppress every analyzer")
	}
}

// TestBareAndPrefixDirectivesSuppressNothing: a nameless directive and a
// longer comment sharing the prefix are both inert.
func TestBareAndPrefixDirectivesSuppressNothing(t *testing.T) {
	pkg, posAt := loadIgnores(t)
	for _, marker := range []string{"func Bare", "func Prefix"} {
		pos := posAt(marker, 1)
		for _, name := range []string{"offsetsafe", "aliascheck", "*", "anything"} {
			if pkg.Ignored(name, pos) {
				t.Errorf("%s after %q: bare/prefix directives must suppress nothing", name, marker)
			}
		}
	}
}

// TestOverlayImports proves the overlay importer: package "b" in testdata
// imports package "a" through the loader rather than the source importer.
func TestOverlayImports(t *testing.T) {
	l, err := New(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	l.AddOverlay("a", "testdata/src/a")
	l.AddOverlay("b", "testdata/src/b")
	pkg, err := l.LoadDir("testdata/src/b", "b")
	if err != nil {
		t.Fatalf("load b: %v", err)
	}
	found := false
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("package b should import overlay package a; imports: %v", pkg.Types.Imports())
	}
	// The overlay import and a direct load must yield the same
	// *types.Package, or cross-package facts keyed by object identity
	// would silently miss.
	direct, err := l.LoadDir("testdata/src/a", "a")
	if err != nil {
		t.Fatalf("load a: %v", err)
	}
	if !samePackage(pkg.Types.Imports(), direct.Types) {
		t.Fatalf("overlay import of a and direct load of a disagree on package identity")
	}
}

func samePackage(imports []*types.Package, want *types.Package) bool {
	for _, imp := range imports {
		if imp == want {
			return true
		}
	}
	return false
}

// TestLoadDirHonoursBuildConstraints loads a package whose two files
// declare the same constant under opposite race constraints: only the file
// a default build compiles is parsed, so the package typechecks.
func TestLoadDirHonoursBuildConstraints(t *testing.T) {
	l, err := New(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir("testdata/src/buildtags", "buildtags")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	if len(names) != 1 || names[0] != "race_off.go" {
		t.Fatalf("loaded files %v, want [race_off.go]", names)
	}
	if !hasGoFiles("testdata/src/buildtags") {
		t.Fatal("hasGoFiles: the package has a file a default build compiles")
	}
}
