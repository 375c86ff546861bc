// Command stcc runs self-tuned congestion control simulations from the
// command line.
//
// Subcommands:
//
//	run     one simulation (flags or -spec file.json), printing the summary
//	sweep   an injection-rate sweep for one scheme (figure 1/3/5 style)
//	bursty  the paper's bursty workload (figure 6/7)
//	trace   the threshold/throughput trajectory of the run "run" would do
//	compare all congestion control schemes on one workload, multi-seed
//
//	list             named experiments (tab1, fig1..fig7, ext1..ext14)
//	describe <name>  one experiment's purpose and grid
//	emit-spec <name> write an experiment's serialized spec (JSON) to stdout
//	experiments-doc  regenerate the catalog section of EXPERIMENTS.md
//
// The simulation subcommands build the configuration the experiment
// registry builds for the same settings and run it on the registry's
// runner, so "run -cache dir" shares entries with "stcc-paper -cache dir".
//
// Run "stcc <subcommand> -h" for flags.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:]))
}
