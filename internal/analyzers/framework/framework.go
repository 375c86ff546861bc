// Package framework is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) plus one `go list`-backed loader. Two callers share that
// loader: Run, which cmd/stcc-vet uses for whole-module runs, and an
// analysistest-style fixture runner driven by `// want "regexp"`
// comments.
//
// The container this repo grows in has no module proxy access, so the
// real x/tools packages cannot be fetched; this package mirrors their
// API shape closely enough that a future PR with network access can swap
// them in by changing imports only. Analyzers written against it take a
// *Pass carrying the parsed files, the type-checked package, and a
// Report callback, exactly like x/tools analyzers without facts or
// sub-analyzer dependencies (none of our checks need either).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report; the error return is for operational failures only
	// (it aborts the whole run, not just the package).
	Run func(*Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between the driver and one analyzer/package
// pair. All fields are set by the driver before Run is called.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. RunOne sets it; analyzers call it
	// (usually via Reportf).
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position in the pass's FileSet and a
// message. Category is the analyzer name by the time it is printed.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
