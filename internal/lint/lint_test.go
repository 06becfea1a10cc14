package lint_test

import (
	"testing"

	"ipdelta/internal/lint"
	"ipdelta/internal/lint/loader"
)

// TestRepoIsClean runs every analyzer over the whole module, so the
// acceptance gate of cmd/ipvet (`go run ./cmd/ipvet ./...` exits 0) is
// enforced by the ordinary test suite as well as by CI.
func TestRepoIsClean(t *testing.T) {
	l, err := loader.New(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load(l.ModuleRoot() + "/...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the loader is missing the module", len(pkgs))
	}
	findings, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", lint.FindingString(f))
	}
}

// TestAnalyzerMetadata guards the CLI contract: distinct, non-empty names
// (they key //ipvet:ignore suppressions) and docs for -list.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 7 {
		t.Errorf("expected the seven ipvet analyzers, got %d", len(seen))
	}
}
