// Command stcc-vet is the determinism-contract multichecker: it runs
// the repo's custom analyzer suite (counterguard, detrand, hotalloc,
// maporder) over the module. See the "Determinism contract" section of
// README.md for the rules it enforces.
//
// Two invocation modes:
//
//	go run ./cmd/stcc-vet ./...          # standalone, CI and local use
//	go vet -vettool=$(which stcc-vet) ./...  # unitchecker protocol
//
// Standalone mode loads packages itself via `go list -export` and exits
// 0 when clean, 1 on operational failure, 2 when non-baselined
// diagnostics were found. Vettool mode implements cmd/go's .cfg
// handshake (including -V=full and -flags probes).
//
// CI-grade controls:
//
//	-format text|json   stable diagnostic output (json is an array of
//	                    {file,line,col,analyzer,message} objects)
//	-baseline file      filter out acknowledged pre-existing findings
//	-write-baseline f   write the current findings as a baseline and exit
//	-enable a,b         run only the named analyzers
//	-disable a,b        run all but the named analyzers
package main

import (
	"crypto/sha256"
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
	// cmd/go probes vet tools before use: `-V=full` for the build
	// cache's tool ID, `-flags` for the analyzer flag inventory. Both
	// must answer on stdout and exit 0.
	progname := filepath.Base(argv[0])
	for _, arg := range argv[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// cmd/go derives the vet tool's build-cache ID from this
			// line: "<name> version devel ... buildID=<content hash>".
			fmt.Fprintf(stdout, "%s version devel determinism-contract-suite buildID=%02x\n", progname, executableHash())
			return 0
		case arg == "-flags" || arg == "--flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}

	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	dir := fs.String("C", "", "change to `dir` before loading packages")
	format := fs.String("format", "text", "diagnostic output format: text or json")
	baseline := fs.String("baseline", "", "filter findings against the baseline `file` (burn-down mode)")
	writeBaseline := fs.String("write-baseline", "", "write the current findings to `file` as a baseline and exit")
	enable := fs.String("enable", "", "comma-separated analyzer names to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] [packages]\n\n", progname)
		fmt.Fprintf(stderr, "Runs the determinism-contract analyzer suite. With a single\n*.cfg argument it speaks the `go vet -vettool` protocol instead.\n\nAnalyzers:\n")
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
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "%s: unknown format %q (want text or json)\n", progname, *format)
		return 1
	}
	suite, err := selectSuite(*enable, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}
	args := fs.Args()

	// A single existing *.cfg argument means cmd/go invoked us as a
	// vettool for one compilation unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return framework.RunVettool(args[0], suite, stderr)
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	findings, err := framework.RunFindings(*dir, args, suite)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 1
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err == nil {
			err = framework.WriteBaseline(f, findings)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: writing baseline: %v\n", progname, err)
			return 1
		}
		fmt.Fprintf(stderr, "%s: wrote %d finding(s) to baseline %s\n", progname, len(findings), *writeBaseline)
		return 0
	}

	if *baseline != "" {
		bl, err := framework.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", progname, err)
			return 1
		}
		findings = bl.Filter(findings)
	}

	var werr error
	if *format == "json" {
		werr = framework.WriteJSON(stdout, findings)
	} else {
		werr = framework.WriteText(stdout, findings)
	}
	if werr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, werr)
		return 1
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "%s: %d determinism-contract violation(s)\n", progname, len(findings))
		return 2
	}
	return 0
}

// selectSuite applies -enable/-disable to the registry. Unknown names
// are an error so a typo cannot silently skip a check.
func selectSuite(enable, disable string) ([]framework.Config, error) {
	suite := analyzers.Suite()
	known := map[string]bool{}
	for _, cfg := range suite {
		known[cfg.Analyzer.Name] = true
	}
	parse := func(flagName, csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (run -list for the registry)", flagName, name)
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse("enable", enable)
	if err != nil {
		return nil, err
	}
	off, err := parse("disable", disable)
	if err != nil {
		return nil, err
	}
	var out []framework.Config
	for _, cfg := range suite {
		if on != nil && !on[cfg.Analyzer.Name] {
			continue
		}
		if off[cfg.Analyzer.Name] {
			continue
		}
		out = append(out, cfg)
	}
	return out, nil
}

// executableHash content-hashes this binary so cmd/go's vet result
// caching invalidates when the tool changes.
func executableHash() []byte {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			return sum[:]
		}
	}
	// Degenerate fallback: a fixed ID still satisfies the protocol, at
	// the cost of cache staleness across tool rebuilds.
	sum := sha256.Sum256([]byte(os.Args[0]))
	return sum[:]
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
