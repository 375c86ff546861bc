package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

// cmdList prints every registered experiment, sorted by name.
func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range experiments.Names() {
		e, _ := experiments.Lookup(name)
		fmt.Printf("%-6s %s\n", name, e.Title)
	}
	return nil
}

// cmdDescribe prints one experiment's purpose and grid shape.
func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	scaleName := fs.String("scale", "quick", "run length: quick or paper")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stcc describe [-scale quick|paper] <name>")
	}
	name := fs.Arg(0)
	e, ok := experiments.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (see \"stcc list\")", name)
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	spec := e.Spec(scale)
	fmt.Printf("%s: %s\n\n%s\n\n", e.Name, e.Title, e.About)
	if spec.NumPoints() == 0 {
		fmt.Println("grid: analytic (no simulations)")
		return nil
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return err
	}
	fmt.Printf("grid (%s scale): %d groups, %d points\n", *scaleName, len(spec.Groups), spec.NumPoints())
	fmt.Printf("spec fingerprint: %s\n", fp)
	for _, g := range spec.Groups {
		label := g.Name
		if label == "" {
			label = "(unnamed)"
		}
		fmt.Printf("  %-40s %d points\n", label, len(g.Points))
	}
	return nil
}

// cmdEmitSpec writes one experiment's serialized spec to stdout.
func cmdEmitSpec(args []string) error {
	fs := flag.NewFlagSet("emit-spec", flag.ExitOnError)
	scaleName := fs.String("scale", "quick", "run length: quick or paper")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: stcc emit-spec [-scale quick|paper] <name>")
	}
	name := fs.Arg(0)
	e, ok := experiments.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (see \"stcc list\")", name)
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	spec := e.Spec(scale)
	if err := spec.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// Markers bracketing the generated catalog section of EXPERIMENTS.md.
const (
	catalogBegin = "<!-- BEGIN GENERATED EXPERIMENT CATALOG -->"
	catalogEnd   = "<!-- END GENERATED EXPERIMENT CATALOG -->"
)

// RenderCatalog splices the registry's generated catalog into doc (the
// content of EXPERIMENTS.md), replacing whatever sits between the
// markers. Shared by "stcc experiments-doc" and the drift test.
func RenderCatalog(doc string) (string, error) {
	begin := strings.Index(doc, catalogBegin)
	end := strings.Index(doc, catalogEnd)
	if begin < 0 || end < 0 || end < begin {
		return "", fmt.Errorf("catalog markers %q ... %q not found", catalogBegin, catalogEnd)
	}
	return doc[:begin+len(catalogBegin)] + "\n\n" +
		experiments.CatalogMarkdown() + doc[end:], nil
}

// cmdExperimentsDoc regenerates the catalog section of EXPERIMENTS.md
// from the registry.
func cmdExperimentsDoc(args []string) error {
	fs := flag.NewFlagSet("experiments-doc", flag.ExitOnError)
	file := fs.String("file", "EXPERIMENTS.md", "document to rewrite between the catalog markers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	updated, err := RenderCatalog(string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", *file, err)
	}
	if updated == string(data) {
		fmt.Printf("%s: catalog up to date\n", *file)
		return nil
	}
	if err := os.WriteFile(*file, []byte(updated), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: catalog regenerated\n", *file)
	return nil
}
