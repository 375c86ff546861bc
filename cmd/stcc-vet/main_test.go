package main

import (
	"bytes"
	"fmt"
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

func TestVetProbes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stcc-vet", "-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-V=full exited %d", code)
	}
	if !strings.Contains(stdout.String(), "buildID=") {
		t.Errorf("-V=full output %q lacks a buildID", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"stcc-vet", "-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-flags exited %d", code)
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("-flags output %q, want []", stdout.String())
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stcc-vet", "-format", "xml"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-format xml exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown format") {
		t.Errorf("stderr %q does not name the bad format", stderr.String())
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	for _, flag := range []string{"-enable", "-disable"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"stcc-vet", flag, "nosuch"}, &stdout, &stderr); code != 1 {
			t.Fatalf("%s nosuch exited %d, want 1", flag, code)
		}
		if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) {
			t.Errorf("%s stderr %q does not name the unknown analyzer", flag, stderr.String())
		}
	}
}

func TestSelectSuite(t *testing.T) {
	names := func(csvEnable, csvDisable string) []string {
		t.Helper()
		suite, err := selectSuite(csvEnable, csvDisable)
		if err != nil {
			t.Fatalf("selectSuite(%q, %q): %v", csvEnable, csvDisable, err)
		}
		var out []string
		for _, cfg := range suite {
			out = append(out, cfg.Analyzer.Name)
		}
		return out
	}
	if got := names("", ""); strings.Join(got, ",") != "counterguard,detrand,hotalloc,maporder" {
		t.Errorf("default suite selected %v, want counterguard,detrand,hotalloc,maporder", got)
	}
	if got := names("detrand,maporder", ""); strings.Join(got, ",") != "detrand,maporder" {
		t.Errorf("-enable detrand,maporder selected %v", got)
	}
	if got := names("", "hotalloc"); len(got) != 3 || strings.Join(got, ",") == "" {
		t.Errorf("-disable hotalloc selected %v", got)
	} else {
		for _, n := range got {
			if n == "hotalloc" {
				t.Errorf("-disable hotalloc still selected %v", got)
			}
		}
	}
	if got := names("detrand,maporder", "maporder"); strings.Join(got, ",") != "detrand" {
		t.Errorf("enable+disable selected %v", got)
	}
}
