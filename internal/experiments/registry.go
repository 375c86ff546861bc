package experiments

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/sim"
)

// RunContext carries everything an experiment needs to execute and
// report: the worker pool (and optional result cache) via Runner, the
// run length, the text sink, and an optional CSV directory.
type RunContext struct {
	Runner Runner
	Scale  Scale
	Out    io.Writer
	// CSVDir, when non-empty, receives the experiment's CSV files.
	CSVDir string
}

// csv writes rows as one CSV file into the context's directory, or does
// nothing when no directory is configured.
func (ctx RunContext) csv(name string, rows [][]string) error {
	if ctx.CSVDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(ctx.CSVDir, name))
	if err != nil {
		return err
	}
	if err := csv.NewWriter(f).WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Entry is one named experiment of the paper's evaluation: a builder
// for the grid it simulates and the formatter that turns the grid's
// results into the rows the paper reports. Analytic entries (tab1,
// fig6) build an empty grid and compute their rows in the formatter.
type Entry struct {
	// Name is the registry key ("fig3", "ext11", ...).
	Name string
	// Title is the one-line description printed by "stcc list".
	Title string
	// About is the longer description printed by "stcc describe".
	About string
	// Spec builds the experiment's serializable grid at a scale.
	Spec func(s Scale) *Spec
	// Report writes the text report to ctx.Out and any CSV files to
	// ctx.CSVDir, given the results of spec grouped like spec.
	Report func(ctx RunContext, spec *Spec, grouped [][]sim.Result) error
}

// Run executes the experiment: it builds the grid at ctx.Scale, runs it
// once on ctx.Runner and reports the results. Every caller that runs a
// registry entry — stcc-paper and Submission.Run, which serves
// "stcc run -spec" and the stcc-serve job manager — goes through here.
func (e Entry) Run(ctx RunContext) error {
	spec := e.Spec(ctx.Scale)
	grouped, err := ctx.Runner.RunSpec(spec)
	if err != nil {
		return err
	}
	return e.Report(ctx, spec, grouped)
}

// registry maps experiment names to entries. It is assembled once at
// init from the register calls; iterate it through Names(), which
// sorts, so no map-order nondeterminism can leak into output.
var registry = make(map[string]Entry)

// PaperOrder is the curated presentation order used by
// "stcc-paper -exp all": the paper's own sequence (table first, then
// figures, then the extension studies).
var PaperOrder = []string{
	"tab1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8",
	"ext9", "ext10", "ext11", "ext12", "ext13", "ext14",
}

// Lookup returns the named experiment.
func Lookup(name string) (Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names returns every registered experiment name in sorted order, so
// iteration order is deterministic regardless of map layout.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry { // collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// register adds an entry, refusing duplicates at init time.
func register(e Entry) {
	if _, dup := registry[e.Name]; dup {
		panic("experiments: duplicate registry entry " + e.Name)
	}
	registry[e.Name] = e
}

// emptySpec is the Spec builder for entries that run no simulations.
func emptySpec(name, title string) func(Scale) *Spec {
	return func(Scale) *Spec { return NewSpec(name, title) }
}
