package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// PaperMain is the stcc-paper entry point: it runs registry experiments
// in the paper's curated order and returns the process exit code.
func PaperMain(args []string) int {
	fs := flag.NewFlagSet("stcc-paper", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: all, or comma-separated names from \"stcc list\"")
	scaleName := fs.String("scale", "quick", "run length: quick or paper")
	out := fs.String("out", "", "directory for CSV output (optional)")
	workers := fs.Int("workers", 0, "parallel simulations per experiment (0 = all CPUs)")
	cacheDir := fs.String("cache", "", "content-addressed result cache `dir` (optional)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcc-paper: unknown -scale %q\n", *scaleName)
		return 2
	}
	runner, err := newRunner(context.Background(), *workers, *cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcc-paper: %v\n", err)
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "stcc-paper: %v\n", err)
			return 1
		}
	}

	var names []string
	if *exp == "all" {
		names = experiments.PaperOrder
	} else {
		for _, n := range strings.Split(*exp, ",") {
			n = strings.TrimSpace(n)
			if _, ok := experiments.Lookup(n); !ok {
				fmt.Fprintf(os.Stderr, "stcc-paper: unknown experiment %q\n", n)
				return 2
			}
			names = append(names, n)
		}
	}

	ctx := experiments.RunContext{
		Runner: runner,
		Scale:  scale,
		Out:    os.Stdout,
		CSVDir: *out,
	}
	for _, n := range names {
		e, _ := experiments.Lookup(n)
		t0 := time.Now()
		fmt.Printf("==== %s ====\n", n)
		if err := e.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "stcc-paper: %s: %v\n", n, err)
			return 1
		}
		fmt.Printf("(%s in %s)\n\n", n, time.Since(t0).Round(time.Second))
	}
	return 0
}
