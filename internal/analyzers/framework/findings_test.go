package framework

import (
	"bytes"
	"path/filepath"
	"testing"
)

var sampleFindings = []Finding{
	{File: "internal/router/stages.go", Line: 42, Col: 3, Analyzer: "counterguard", Message: "direct write to active-set counter latched outside buffer.go"},
	{File: "internal/sim/engine.go", Line: 7, Col: 1, Analyzer: "hotalloc", Message: "make in hot path allocates"},
}

// TestWriteTextGolden pins the text format: file:line:col: analyzer:
// message, one per line.
func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleFindings); err != nil {
		t.Fatal(err)
	}
	want := "internal/router/stages.go:42:3: counterguard: direct write to active-set counter latched outside buffer.go\n" +
		"internal/sim/engine.go:7:1: hotalloc: make in hot path allocates\n"
	if buf.String() != want {
		t.Errorf("text output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestRelativize covers the path rewriting applied to findings.
func TestRelativize(t *testing.T) {
	sep := string(filepath.Separator)
	cases := []struct{ root, file, want string }{
		{sep + "repo", sep + filepath.Join("repo", "a", "b.go"), filepath.Join("a", "b.go")},
		{sep + "repo", sep + filepath.Join("other", "b.go"), sep + filepath.Join("other", "b.go")},
		{sep + "repo", "rel.go", "rel.go"},
		{"", sep + filepath.Join("x", "y.go"), sep + filepath.Join("x", "y.go")},
	}
	for _, c := range cases {
		if got := relativize(c.root, c.file); got != c.want {
			t.Errorf("relativize(%q, %q) = %q, want %q", c.root, c.file, got, c.want)
		}
	}
}
