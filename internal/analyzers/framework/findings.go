package framework

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// Finding is one rendered diagnostic. File is relative to the directory
// the run was rooted at whenever possible, so output is the same across
// checkouts.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the finding in the classic vet text form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// sortFindings orders findings by file, line, column, analyzer, message.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteText writes findings one per line in file:line:col form.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// relativize rewrites an absolute position filename relative to root
// when possible; cross-volume or unrelated paths stay absolute.
func relativize(root, file string) string {
	if root == "" || !filepath.IsAbs(file) {
		return file
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || rel == ".." || filepath.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return file
	}
	return rel
}
