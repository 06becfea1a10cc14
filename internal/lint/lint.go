// Package lint aggregates the project's analyzers and runs them over
// loaded packages through the interprocedural checker. cmd/ipvet is a
// thin CLI around this package, and the package's own test runs the full
// suite over the module, so `go test` enforces the same invariants CI
// does.
package lint

import (
	"fmt"

	"ipdelta/internal/lint/aliascheck"
	"ipdelta/internal/lint/allocfree"
	"ipdelta/internal/lint/analysis"
	"ipdelta/internal/lint/atomicmix"
	"ipdelta/internal/lint/checker"
	"ipdelta/internal/lint/errpropagate"
	"ipdelta/internal/lint/loader"
	"ipdelta/internal/lint/lockorder"
	"ipdelta/internal/lint/locksafe"
	"ipdelta/internal/lint/offsetsafe"
)

// All returns every user-facing ipvet analyzer. Shared passes (inspect,
// callgraph) are not listed; the checker schedules them through Requires.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		offsetsafe.Analyzer,
		aliascheck.Analyzer,
		locksafe.Analyzer,
		errpropagate.Analyzer,
		allocfree.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
	}
}

// Finding is one non-suppressed diagnostic with resolved positions and
// any mechanical fixes.
type Finding = checker.Diagnostic

// FindingString renders a finding the way the CLI prints it.
func FindingString(f Finding) string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies the analyzers to the packages in dependency order, facts
// flowing across package boundaries, and returns the findings in source
// order with //ipvet:ignore suppressions already applied.
func Run(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	return checker.Run(pkgs, analyzers)
}
