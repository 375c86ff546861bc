package framework

import (
	"bytes"
	"os"
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

// TestWriteJSONGolden pins the machine-readable format CI archives as
// an artifact: an indented array of {file,line,col,analyzer,message}.
func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleFindings); err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "file": "internal/router/stages.go",
    "line": 42,
    "col": 3,
    "analyzer": "counterguard",
    "message": "direct write to active-set counter latched outside buffer.go"
  },
  {
    "file": "internal/sim/engine.go",
    "line": 7,
    "col": 1,
    "analyzer": "hotalloc",
    "message": "make in hot path allocates"
  }
]
`
	if buf.String() != want {
		t.Errorf("json output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestWriteJSONEmpty pins the clean-tree output: an empty array, never
// null.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("empty json output %q, want %q", buf.String(), "[]\n")
	}
}

// TestBaselineRoundTrip: findings written as a baseline filter
// themselves out; fresh findings survive; duplicate findings consume
// one baseline count each.
func TestBaselineRoundTrip(t *testing.T) {
	old := []Finding{
		{File: "a.go", Line: 1, Col: 1, Analyzer: "hotalloc", Message: "make in hot path allocates"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "hotalloc", Message: "make in hot path allocates"},
		{File: "b.go", Line: 2, Col: 2, Analyzer: "detrand", Message: "global rand"},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bl, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	// The same findings at different lines still match (baselines key
	// on analyzer/file/message so they survive unrelated reflows), and
	// a third duplicate in the same file exceeds the count of two.
	now := []Finding{
		{File: "a.go", Line: 5, Col: 1, Analyzer: "hotalloc", Message: "make in hot path allocates"},
		{File: "a.go", Line: 11, Col: 1, Analyzer: "hotalloc", Message: "make in hot path allocates"},
		{File: "a.go", Line: 20, Col: 1, Analyzer: "hotalloc", Message: "make in hot path allocates"},
		{File: "b.go", Line: 2, Col: 2, Analyzer: "detrand", Message: "global rand"},
		{File: "c.go", Line: 3, Col: 3, Analyzer: "maporder", Message: "range over map"},
	}
	rest := bl.Filter(now)
	if len(rest) != 2 {
		t.Fatalf("Filter kept %d findings, want 2: %+v", len(rest), rest)
	}
	if rest[0].File != "a.go" || rest[0].Line != 20 {
		t.Errorf("surviving duplicate = %+v, want the third a.go make", rest[0])
	}
	if rest[1].File != "c.go" {
		t.Errorf("fresh finding = %+v, want c.go", rest[1])
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
