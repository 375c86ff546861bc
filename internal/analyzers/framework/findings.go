package framework

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Finding is one rendered diagnostic with a stable, machine-readable
// shape: CI consumes the JSON form as an artifact and the baseline
// mechanism keys off (Analyzer, File, Message). File is relative to the
// directory the run was rooted at whenever possible, so findings and
// baselines are portable across checkouts.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in the classic vet text form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// sortFindings orders findings by file, line, column, analyzer, message —
// the order both output formats emit.
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

// WriteJSON writes findings as an indented JSON array (always an array,
// `[]` when clean) followed by a newline. The field order is fixed by
// the Finding struct, so the output is golden-testable.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	data, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// BaselineEntry is one acknowledged pre-existing finding. Line and
// column are deliberately absent: unrelated edits move diagnostics
// around, and a baseline that rots on every reflow blocks nothing but
// patience. Count allows several identical findings in one file.
type BaselineEntry struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
	Count    int    `json:"count"`
}

// Baseline is a multiset of acknowledged findings, keyed by
// (analyzer, file, message).
type Baseline struct {
	counts map[BaselineEntry]int
}

func baselineKey(f Finding) BaselineEntry {
	return BaselineEntry{Analyzer: f.Analyzer, File: f.File, Message: f.Message, Count: 0}
}

// LoadBaseline reads a baseline file written by WriteBaseline. An
// empty array is a valid (and the ideal) baseline.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []BaselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %v", path, err)
	}
	b := &Baseline{counts: map[BaselineEntry]int{}}
	for _, e := range entries {
		n := e.Count
		if n <= 0 {
			n = 1
		}
		e.Count = 0
		b.counts[e] += n
	}
	return b, nil
}

// Filter returns the findings not covered by the baseline, consuming
// one baseline count per matched finding. The receiver is mutated;
// load a fresh baseline per run.
func (b *Baseline) Filter(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		k := baselineKey(f)
		if b.counts[k] > 0 {
			b.counts[k]--
			continue
		}
		out = append(out, f)
	}
	return out
}

// WriteBaseline writes findings as a baseline JSON array, sorted and
// with identical findings collapsed into counts.
func WriteBaseline(w io.Writer, fs []Finding) error {
	counts := map[BaselineEntry]int{}
	for _, f := range fs {
		counts[baselineKey(f)]++
	}
	entries := make([]BaselineEntry, 0, len(counts))
	for k, n := range counts {
		k.Count = n
		entries = append(entries, k)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
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
