// Command ipvet runs the project's static analyzers over the module:
//
//	go run ./cmd/ipvet ./...
//
// It exits 0 when every package is clean and 1 with file:line diagnostics
// otherwise; operational failures (bad flags, unloadable packages) exit 2.
// Run it from the module root (the loader resolves import paths against
// the enclosing go.mod). The suite covers offset arithmetic (offsetsafe),
// buffer aliasing (aliascheck), lock discipline (locksafe), dropped
// codec/store errors (errpropagate), the zero-allocation contract of
// //ipvet:allocfree functions (allocfree), cross-package lock-order
// cycles (lockorder), and mixed atomic/plain field access (atomicmix).
//
// Flags:
//
//	-list          print the analyzers and the invariant each enforces
//	-run a,b       run only the named analyzers
//	-json          emit diagnostics as a JSON array on stdout
//	-fix           apply suggested fixes to the source files
//
// Individual findings can be suppressed with an analyzer-scoped comment:
//
//	//ipvet:ignore offsetsafe -- bounded by the header check above
//
// -fix is idempotent: a fix removes the pattern that triggered it, so a
// second -fix run changes nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ipdelta/internal/lint"
	"ipdelta/internal/lint/analysis"
	"ipdelta/internal/lint/checker"
	"ipdelta/internal/lint/loader"
)

// jsonDiagnostic is the machine-readable form of one finding, stable for
// CI consumers (the ipvet workflow uploads the array as an artifact).
type jsonDiagnostic struct {
	Analyzer string    `json:"analyzer"`
	File     string    `json:"file"`
	Line     int       `json:"line"`
	Column   int       `json:"column"`
	EndLine  int       `json:"endLine,omitempty"`
	EndCol   int       `json:"endColumn,omitempty"`
	Message  string    `json:"message"`
	Fixes    []jsonFix `json:"fixes,omitempty"`
}

type jsonFix struct {
	Message string     `json:"message"`
	Edits   []jsonEdit `json:"edits"`
}

type jsonEdit struct {
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"newText"`
}

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list analyzers and exit")
	runFilter := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ipvet [-list] [-run names] [-json] [-fix] [packages]\n\npackages are directory patterns like ./... (the default)\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runFilter != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*runFilter, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "ipvet: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := loader.New(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipvet:", err)
		return 2
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipvet:", err)
		return 2
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipvet:", err)
		return 2
	}

	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(findings))
		for _, f := range findings {
			jd := jsonDiagnostic{
				Analyzer: f.Analyzer,
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			}
			if f.End.IsValid() {
				jd.EndLine, jd.EndCol = f.End.Line, f.End.Column
			}
			for _, fx := range f.Fixes {
				jf := jsonFix{Message: fx.Message}
				for _, e := range fx.Edits {
					jf.Edits = append(jf.Edits, jsonEdit{
						File: e.File, Start: e.Start, End: e.End, NewText: string(e.NewText),
					})
				}
				jd.Fixes = append(jd.Fixes, jf)
			}
			out = append(out, jd)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "ipvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(lint.FindingString(f))
		}
	}

	if *fix {
		changed, applied, skipped, err := checker.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ipvet:", err)
			return 2
		}
		for _, file := range changed {
			fmt.Fprintf(os.Stderr, "ipvet: fixed %s\n", file)
		}
		if applied > 0 || skipped > 0 {
			fmt.Fprintf(os.Stderr, "ipvet: applied %d fix(es) to %d file(s), skipped %d overlapping\n",
				applied, len(changed), skipped)
		}
		// Fixed findings are resolved; exit nonzero only for what remains.
		if applied < len(findings) {
			fmt.Fprintf(os.Stderr, "ipvet: %d finding(s) had no applicable fix\n", len(findings)-applied)
			return 1
		}
		return 0
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "ipvet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
