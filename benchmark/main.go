// Command benchmark is the simulator's end-to-end benchmark. It runs
// five workloads — the fig3 sweep, a saturated and a lightly loaded
// paper network, a sharded 512-node 3-cube, and a cache-mixed load on
// the stcc-serve service — and measures them from outside, by timing
// calls into each layer's public functions.
//
//	go run . -workload uniform-saturated -seed 3 -seconds 10 -trace 0
//
// With -trace 0 a workload prints its end-to-end metrics; with -trace 1
// it runs an untraced pass and a separate traced pass and prints the
// per-layer metrics and the tracing overhead. Either way the last line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

const (
	defaultSeed    = 1
	defaultSeconds = 10
)

// options are one invocation's settings, shared by every workload.
type options struct {
	seed    int64
	seconds int
	smoke   bool   // tiny sizes, for the package tests
	nproc   int    // load goroutines and connections, at most runtime.NumCPU
	outDir  string // working files: result-store directories and trace files
}

// workload is one set of inputs. run measures it with tracing off;
// trace runs an untraced pass and then a traced one.
type workload struct {
	name  string
	run   func(o options) (*report, error)
	trace func(o options) (*report, error)
}

var workloads = []workload{
	{"fig3-sweep", runSweep, traceSweep},
	{"uniform-saturated", saturated.run, saturated.trace},
	{"uniform-lowload", lowload.run, lowload.trace},
	{"cube512-sharded", cube512.run, cube512.trace},
	{"serve-mixed", runServe, traceServe},
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: all five in order)")
	seed := fs.Int64("seed", defaultSeed, "seed for every simulation and the service job sequence")
	seconds := fs.Int("seconds", defaultSeconds, "measurement length; sizes each workload's work")
	trace := fs.Int("trace", 0, "1: traced pass with per-layer metrics; 0: end-to-end metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes (seconds of work in total)")
	out := fs.String("out", ".bench_build", "directory for result stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-smoke]")
		return 2
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
	}
	dir, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if _, err := threadCPU(); err != nil {
		fmt.Fprintf(stderr, "reading the thread CPU clock the host probe needs: %v\n", err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke, nproc: runtime.NumCPU(), outDir: dir}
	for _, w := range selected {
		run := w.run
		if *trace == 1 {
			run = w.trace
		}
		rep, err := run(o)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			return 1
		}
		if err := rep.print(stdout, hostInfo(o.seed), *trace == 1); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
