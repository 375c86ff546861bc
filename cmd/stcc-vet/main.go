// Command stcc-vet is the determinism-contract multichecker: it runs
// the repo's custom analyzer suite (counterguard, detrand, hotalloc,
// maporder) over the module. See the "Determinism contract" section of
// README.md for the rules it enforces.
//
//	go run ./cmd/stcc-vet ./...
//	go run ./cmd/stcc-vet -C dir ./internal/sim
//	go run ./cmd/stcc-vet -list
//
// It loads packages through `go list -export`, prints one
// file:line:col: analyzer: message line per finding, and exits 0 when
// clean, 1 on an operational failure and 2 when it found violations.
// A reviewed exception is an in-source directive with a reason
// (//stcc:maporder, //stcc:hotalloc), not a flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analyzers"
	"repro/internal/analyzers/framework"
)

func main() {
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	progname := filepath.Base(argv[0])
	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	dir := fs.String("C", "", "change to `dir` before loading packages")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-C dir] [-list] [packages]\n\n", progname)
		fmt.Fprintf(stderr, "Runs the determinism-contract analyzer suite.\n\nAnalyzers:\n")
		listSuite(stderr, "  ")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv[1:]); err != nil {
		return 1
	}
	if *list {
		listSuite(stdout, "")
		return 0
	}

	n, err := framework.Run(*dir, fs.Args(), analyzers.Suite(), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}
	if n > 0 {
		fmt.Fprintf(stderr, "%s: %d determinism-contract violation(s)\n", progname, n)
		return 2
	}
	return 0
}

// listSuite prints one analyzer per line, sorted by name, with its
// one-sentence doc summary.
func listSuite(w io.Writer, indent string) {
	suite := analyzers.Suite()
	sort.Slice(suite, func(i, j int) bool { return suite[i].Analyzer.Name < suite[j].Analyzer.Name })
	for _, cfg := range suite {
		doc := cfg.Analyzer.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(w, "%s%s: %s\n", indent, cfg.Analyzer.Name, doc)
	}
}
