package experiments

import (
	"fmt"
	"strings"
)

// CatalogMarkdown renders the experiment registry as the generated
// section of EXPERIMENTS.md ("stcc experiments-doc" rewrites it; a test
// in the root package fails if the committed file drifts). Iteration
// follows PaperOrder, so the output is deterministic.
func CatalogMarkdown() string {
	var b strings.Builder
	b.WriteString("Generated from the experiment registry by `stcc experiments-doc`. Do not edit by hand;\n")
	b.WriteString("run `make experiments-doc` after changing a registry entry in `internal/experiments`.\n\n")
	b.WriteString("| name | title | grid (quick scale) |\n")
	b.WriteString("|------|-------|--------------------|\n")
	for _, name := range PaperOrder {
		e, ok := Lookup(name)
		if !ok {
			continue
		}
		spec := e.Spec(Quick)
		grid := "analytic (no simulations)"
		if n := spec.NumPoints(); n > 0 {
			grid = fmt.Sprintf("%d groups, %d points", len(spec.Groups), n)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", name, e.Title, grid)
	}
	b.WriteString("\n")
	for _, name := range PaperOrder {
		e, ok := Lookup(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "**%s** — %s\n\n", name, e.About)
	}
	return b.String()
}
