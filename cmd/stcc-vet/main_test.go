package main

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// TestListGolden pins -list's output format — one analyzer per line,
// sorted, "name: one-sentence doc" — and derives the expectation from
// the registry so the list can never drift from it.
func TestListGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stcc-vet", "-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	var want []string
	for _, cfg := range analyzers.Suite() {
		doc := cfg.Analyzer.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		want = append(want, fmt.Sprintf("%s: %s", cfg.Analyzer.Name, doc))
	}
	sort.Strings(want)
	if got := stdout.String(); got != strings.Join(want, "\n")+"\n" {
		t.Errorf("-list output:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if len(want) != 4 {
		t.Errorf("registry has %d analyzers, want 4", len(want))
	}
}

// TestFindingsExitTwo pins the violation half of the exit contract on
// the hotalloc fixture, which is in scope because hotalloc applies to
// every package: exit 2, one relative file:line:col: hotalloc: line per
// finding on stdout, and the count on stderr.
func TestFindingsExitTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"stcc-vet", "-C", "../..", "./internal/analyzers/testdata/src/hotalloc/a"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	line := regexp.MustCompile(`^internal/analyzers/testdata/src/hotalloc/a/a\.go:\d+:\d+: hotalloc: `)
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Errorf("stdout line %q does not match %s", l, line)
		}
	}
	if want := fmt.Sprintf("stcc-vet: %d determinism-contract violation(s)\n", len(lines)); stderr.String() != want {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
}
