package framework

import (
	"fmt"
	"io"
	"path/filepath"
)

// Config pairs an analyzer with the set of packages it applies to. A
// nil Applies runs the analyzer on every loaded package.
type Config struct {
	Analyzer *Analyzer
	// Applies reports whether the analyzer should run on the package
	// with the given import path.
	Applies func(pkgPath string) bool
}

// Run loads the packages matching patterns under dir, applies every
// applicable analyzer, writes the diagnostics to w in file:line:col
// order with file paths relative to dir, and returns their count. A
// non-nil error means the run itself failed (load, type-check, or
// analyzer abort), not that diagnostics were found.
func Run(dir string, patterns []string, cfgs []Config, w io.Writer) (int, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return 0, err
	}
	root := dir
	if abs, err := filepath.Abs(dir); err == nil {
		root = abs
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, cfg := range cfgs {
			if cfg.Applies != nil && !cfg.Applies(pkg.PkgPath) {
				continue
			}
			diags, err := RunOne(cfg.Analyzer, pkg)
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %v", cfg.Analyzer.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					File:     relativize(root, pos.Filename),
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: cfg.Analyzer.Name,
					Message:  d.Message,
				})
			}
		}
	}
	sortFindings(findings)
	if err := WriteText(w, findings); err != nil {
		return 0, err
	}
	return len(findings), nil
}

// RunOne applies a single analyzer to a loaded package and returns its
// diagnostics.
func RunOne(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return diags, nil
}
