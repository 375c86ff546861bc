package framework

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestRunner mirrors analysistest.Run: it loads the fixture package at
// testdata/src/<pkgRel> through Load, the loader cmd/stcc-vet uses,
// runs the analyzer over it, and checks the diagnostics against
// `// want "regexp"` comments in the fixture sources. A line may carry
// several quoted regexps; each must be matched by a distinct diagnostic
// on that line, and every diagnostic must be claimed by some
// expectation.
func TestRunner(t *testing.T, testdata string, a *Analyzer, pkgRel string) {
	t.Helper()
	pkgs, err := Load(filepath.Join(testdata, "src", pkgRel), ".")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgRel, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", pkgRel, len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := RunOne(a, pkg)
	if err != nil {
		t.Fatalf("running %s on fixture: %v", a.Name, err)
	}

	wants := collectWants(t, pkg.Fset, pkg.Syntax)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := posKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		rest := wants[key][:0]
		for _, w := range wants[key] {
			if !matched && w.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for key, res := range wants {
		for _, w := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.String())
		}
	}
}

type posKey struct {
	file string
	line int
}

// wantRE matches a `// want` comment's payload.
var wantRE = regexp.MustCompile(`^//\s*want\s+(.*)$`)

// collectWants extracts the expected-diagnostic regexps from the
// fixtures' comments, keyed by (file, line) of the comment.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]*regexp.Regexp {
	t.Helper()
	wants := map[posKey][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				key := posKey{filepath.Base(pos.Filename), pos.Line}
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// splitQuoted splits a want payload into its Go string literals: both
// double-quoted (with escapes) and backquoted forms are accepted, as in
// x/tools' analysistest.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		quote := s[i]
		if quote != '"' && quote != '`' {
			continue
		}
		j := i + 1
		for j < len(s) {
			if quote == '"' && s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == quote {
				break
			}
			j++
		}
		if j >= len(s) {
			break
		}
		out = append(out, s[i:j+1])
		i = j
	}
	return out
}
