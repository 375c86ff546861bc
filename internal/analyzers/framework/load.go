package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package produced by Load, carrying
// everything a Pass needs.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir, "" for
// the current directory), builds export data for every dependency via
// `go list -export -deps`, and type-checks each matched package from
// source. Dependencies — including sibling packages of the same module —
// are imported from compiler export data, so a whole-module load
// type-checks each package exactly once.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			// cgo packages cannot be type-checked from raw source; none
			// exist in this module, but skip rather than fail if one
			// appears.
			continue
		}
		pkg, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one listed package from source,
// importing its dependencies through imp.
func checkPackage(fset *token.FileSet, imp types.Importer, t *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		path := filepath.Join(t.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		PkgPath:   t.ImportPath,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
