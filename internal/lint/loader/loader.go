// Package loader enumerates and typechecks the module's packages for the
// ipvet analyzers. It is a small, offline replacement for
// golang.org/x/tools/go/packages: files are parsed with go/parser and
// typechecked with go/types using the compiler's source importer, so the
// whole pipeline works from a clean checkout with no module proxy.
//
// The loader also supports an import-path overlay, mapping synthetic
// import paths to directories outside the module layout. The analysis
// tests use it to typecheck multi-package testdata trees — a package
// "b" in testdata/src/b importing "a" in testdata/src/a — which is what
// lets the interprocedural analyzers exercise cross-package facts against
// self-contained fixtures.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked package.
type Package struct {
	// PkgPath is the import path ("ipdelta/internal/codec").
	PkgPath string
	// Dir is the absolute directory holding the package's files.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	// TypesInfo has Types, Defs, Uses and Selections populated for every
	// file in Files.
	TypesInfo *types.Info

	// ignores maps "filename:line" to the analyzer names suppressed on
	// that line by //ipvet:ignore comments ("*" suppresses all).
	ignores map[string]map[string]bool
}

// Ignored reports whether a diagnostic from the named analyzer at pos is
// suppressed by an //ipvet:ignore comment covering that line. Suppression
// is analyzer-scoped: a directive mutes exactly the analyzers it names
// (or every analyzer, for the explicit "*"), never its neighbours on the
// same line.
func (p *Package) Ignored(analyzer string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	names := p.ignores[fmt.Sprintf("%s:%d", position.Filename, position.Line)]
	return names != nil && (names["*"] || names[analyzer])
}

// Loader typechecks packages with a shared FileSet and importer so that
// dependencies are only typechecked once per process.
type Loader struct {
	fset    *token.FileSet
	imp     types.Importer
	modRoot string
	modPath string
	overlay map[string]string   // import path -> directory
	cache   map[string]*Package // by absolute dir
}

// New locates the enclosing module (walking up from dir, "" meaning the
// working directory) and returns a loader for it.
func New(dir string) (*Loader, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		modRoot: root,
		modPath: path,
		overlay: map[string]string{},
		cache:   map[string]*Package{},
	}
	// The compiler's source importer resolves GOROOT and module-internal
	// paths; the overlay wrapper intercepts synthetic testdata paths
	// before they reach it.
	l.imp = &overlayImporter{l: l, fallback: importer.ForCompiler(fset, "source", nil)}
	return l, nil
}

// ModuleRoot returns the directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// AddOverlay maps the import path to a directory: subsequent imports of
// path (from any package this loader typechecks) resolve to the package
// in dir instead of going through the source importer. Overlay packages
// are loaded with LoadDir(dir, path) and shared with direct loads of the
// same directory.
func (l *Loader) AddOverlay(path, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	l.overlay[path] = abs
}

// overlayImporter resolves overlay paths and module-internal paths
// through the loader itself, and everything else (the standard library)
// through the compiler's source importer. Routing module-internal imports
// through the loader is what gives every loaded package one shared object
// world: a fact exported on an object of ipdelta/internal/delta while that
// package is analyzed is found again when ipdelta/internal/diff's syntax
// resolves to the very same types.Object. If the source importer
// typechecked dependencies instead, it would build parallel objects and
// cross-package facts would silently miss.
type overlayImporter struct {
	l        *Loader
	fallback types.Importer
}

func (oi *overlayImporter) Import(path string) (*types.Package, error) {
	dir, ok := oi.l.overlay[path]
	if !ok {
		dir, ok = oi.l.moduleDir(path)
	}
	if ok {
		pkg, err := oi.l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return oi.fallback.Import(path)
}

// moduleDir maps a module-internal import path to the directory holding
// its source, or reports false for external paths.
func (l *Loader) moduleDir(path string) (string, bool) {
	if path == l.modPath {
		return l.modRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// findModule walks up from dir to the first go.mod and parses its module
// path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("loader: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Load resolves patterns to packages. A pattern is a directory path,
// optionally ending in "/..." to include every package under it (testdata,
// hidden and underscore-prefixed directories are skipped, matching the go
// tool's rules).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if base == "" {
				base = "."
			}
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					dirs = append(dirs, p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			dirs = append(dirs, filepath.Clean(pat))
		}
	}
	var pkgs []*Package
	seen := map[string]bool{}
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		if seen[abs] {
			continue
		}
		seen[abs] = true
		pkg, err := l.LoadDir(dir, "")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		// A file that cannot be read counts, so LoadDir reports why.
		if ok, err := isSource(dir, e); ok || err != nil {
			return true
		}
	}
	return false
}

// isSource reports whether e is a non-test Go file of the package in dir
// that a default build compiles: its build constraints and its _GOOS and
// _GOARCH name suffixes match, as go/build decides them.
func isSource(dir string, e os.DirEntry) (bool, error) {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return build.Default.MatchFile(dir, name)
}

// LoadDir parses and typechecks the single package in dir. importPath
// overrides the path derived from the module layout; analysis tests use it
// to load self-contained testdata packages.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.cache[abs]; ok && (importPath == "" || p.PkgPath == importPath) {
		return p, nil
	}
	if importPath == "" {
		rel, err := filepath.Rel(l.modRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("loader: %s is outside module %s", abs, l.modPath)
		}
		if rel == "." {
			importPath = l.modPath
		} else {
			importPath = l.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	srcs := map[string][]byte{}
	for _, e := range ents {
		ok, err := isSource(abs, e)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		filename := filepath.Join(abs, e.Name())
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, filename, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		srcs[filename] = src
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		PkgPath:   importPath,
		Dir:       abs,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
		ignores:   collectIgnores(l.fset, files, srcs),
	}
	l.cache[abs] = pkg
	return pkg, nil
}

// collectIgnores indexes //ipvet:ignore comments. Syntax:
//
//	x := int(v) //ipvet:ignore offsetsafe -- reason
//	//ipvet:ignore offsetsafe,aliascheck -- reason
//	y := int(w)
//
// A trailing directive (code precedes it on the line) covers exactly its
// own line; a standalone directive (alone on its line) covers exactly the
// next line. Suppression is analyzer-scoped: the directive must name the
// analyzers to mute, comma- or space-separated, and only those analyzers
// are silenced — "*" is the explicit, greppable opt-out for every
// analyzer. A bare "//ipvet:ignore" with no names suppresses nothing;
// earlier versions treated it as a wildcard, which made one analyzer's
// suppression silently swallow every other finding on the line.
func collectIgnores(fset *token.FileSet, files []*ast.File, srcs map[string][]byte) map[string]map[string]bool {
	ignores := map[string]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//ipvet:ignore")
				if !ok {
					continue
				}
				// Reject "//ipvet:ignoreX": the directive must be
				// followed by a separator or end of comment.
				if text != "" && text[0] != ' ' && text[0] != '\t' {
					continue
				}
				if names, _, found := strings.Cut(text, "--"); found {
					text = names
				}
				names := map[string]bool{}
				for _, n := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					names[n] = true
				}
				if len(names) == 0 {
					continue // unscoped directive: suppresses nothing
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				if standaloneComment(srcs[pos.Filename], pos.Offset) {
					line = pos.Line + 1
				}
				key := fmt.Sprintf("%s:%d", pos.Filename, line)
				if ignores[key] == nil {
					ignores[key] = map[string]bool{}
				}
				for n := range names {
					ignores[key][n] = true
				}
			}
		}
	}
	return ignores
}

// standaloneComment reports whether only whitespace precedes the comment
// starting at offset on its line.
func standaloneComment(src []byte, offset int) bool {
	if src == nil || offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true // first line of the file
}
