// Package cli implements the stcc and stcc-paper command lines on one
// shared core: both binaries are thin main functions over Main and
// PaperMain, so flag handling, the experiment registry, and the result
// cache behave identically everywhere.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/congestion"
	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/version"
)

// Main is the stcc entry point. It returns the process exit code.
// Simulation subcommands run under a signal-aware context: Ctrl-C (or
// SIGTERM) cancels the grid between points and stops in-flight engines
// between cycles, so an interrupted sweep exits promptly instead of
// abandoning worker goroutines.
func Main(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch args[0] {
	case "run":
		err = cmdRun(ctx, args[1:])
	case "sweep":
		err = cmdSweep(ctx, args[1:])
	case "bursty":
		err = cmdBursty(ctx, args[1:])
	case "trace":
		err = cmdTrace(ctx, args[1:])
	case "compare":
		err = cmdCompare(ctx, args[1:])
	case "list":
		err = cmdList(args[1:])
	case "describe":
		err = cmdDescribe(args[1:])
	case "emit-spec":
		err = cmdEmitSpec(args[1:])
	case "experiments-doc":
		err = cmdExperimentsDoc(args[1:])
	case "version":
		fmt.Println(version.Get())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "stcc: unknown subcommand %q\n", args[0])
		usage()
		return 2
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "stcc: interrupted")
		return 130
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcc: %v\n", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stcc <subcommand> [flags]

simulation:
  run     one simulation (flags or -spec file.json), printing the summary
  sweep   an injection-rate sweep for one scheme
  bursty  the paper's bursty workload
  trace   the self-tuner's threshold trajectory
  compare base, alo, static and tune on one workload, multi-seed

experiment registry:
  list             named experiments (tab1, fig1..fig7, ext1..ext14)
  describe <name>  one experiment's purpose and grid
  emit-spec <name> write an experiment's serialized spec (JSON) to stdout
  experiments-doc  regenerate the catalog section of EXPERIMENTS.md

  version          print build provenance (module, commit, Go version)

serving: the stcc-serve binary exposes the registry and spec execution
over HTTP; see README.md ("Running as a service").`)
}

// newRunner returns the Runner every simulation subcommand and
// stcc-paper run their points on. It rejects a negative -workers up
// front (experiments.Runner would read it as "all CPUs") and attaches
// the result store a -cache flag names.
func newRunner(ctx context.Context, workers int, cacheDir string) (experiments.Runner, error) {
	if workers < 0 {
		return experiments.Runner{}, fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	cache, err := openCache(cacheDir)
	if err != nil {
		return experiments.Runner{}, err
	}
	return experiments.Runner{Workers: workers, Cache: cache, Ctx: ctx}, nil
}

// runConfig runs one flag-built configuration as a one-point spec named
// after its subcommand, so it is cached and canceled like any grid
// point.
func runConfig(runner experiments.Runner, name string, cfg sim.Config) (sim.Result, error) {
	spec := experiments.NewSpec(name, "")
	spec.AddGroup("", experiments.Point{Label: string(cfg.Scheme.Kind), Config: cfg})
	grouped, err := runner.RunSpec(spec)
	if err != nil {
		return sim.Result{}, err
	}
	return grouped[0][0], nil
}

// netFlags registers the flags shared by all simulation subcommands and
// returns a builder that assembles the sim.Config. Scheme fields are set
// only where they differ from the registry's, so a flag-built config
// has the wire form, fingerprint and cache entry of the registry point
// with the same settings.
func netFlags(fs *flag.FlagSet) func() (sim.Config, error) {
	def := sim.NewConfig()
	k := fs.Int("k", def.K, "radix (nodes per dimension)")
	n := fs.Int("n", def.N, "dimensions")
	vcs := fs.Int("vcs", def.VCs, "virtual channels per physical channel")
	depth := fs.Int("depth", def.BufDepth, "flits per VC buffer")
	plen := fs.Int("plen", def.PacketLength, "packet length in flits")
	mode := fs.String("mode", def.Mode.String(), fmt.Sprintf("deadlock handling: %s or %s", router.Recovery, router.Avoidance))
	timeout := fs.Int64("timeout", def.DeadlockTimeout, "deadlock detection timeout (cycles)")
	tokenWait := fs.Int64("tokenwait", 0, "recovery token wait before re-arm (0 = 2.4x timeout)")
	hop := fs.Int("hop", def.SidebandHopDelay, "side-band hop delay (cycles)")
	bits := fs.Int("bits", 0, "side-band width in bits (0 = full precision)")
	var patterns []string
	for _, kind := range traffic.PatternKinds() {
		patterns = append(patterns, string(kind))
	}
	pattern := fs.String("pattern", string(def.Pattern), "communication pattern: "+strings.Join(patterns, ", "))
	rate := fs.Float64("rate", 0.01, "offered load (packets/node/cycle)")
	warmup := fs.Int64("warmup", def.WarmupCycles, "warm-up cycles (ignored in statistics)")
	measure := fs.Int64("measure", def.MeasureCycles, "measured cycles")
	seed := fs.Int64("seed", def.Seed, "random seed")
	scheme := fs.String("scheme", string(sim.Base), "congestion control: "+strings.Join(congestion.Names(), ", "))
	threshold := fs.Float64("threshold", 250, "full-buffer threshold for -scheme static")
	estimator := fs.String("estimator", "linear", "congestion estimator for static, tune and tune-hillclimb: linear or last")
	period := fs.Int64("period", 0, "tuning period in cycles for static, tune and tune-hillclimb (0 = 3 gather durations)")

	return func() (sim.Config, error) {
		cfg := sim.NewConfig()
		cfg.K, cfg.N = *k, *n
		cfg.VCs, cfg.BufDepth = *vcs, *depth
		cfg.PacketLength = *plen
		if err := cfg.Mode.UnmarshalText([]byte(*mode)); err != nil {
			return cfg, fmt.Errorf("-mode: %w", err)
		}
		cfg.DeadlockTimeout = *timeout
		cfg.TokenWaitTimeout = *tokenWait
		cfg.SidebandHopDelay = *hop
		cfg.SidebandBits = *bits
		cfg.Pattern = traffic.PatternKind(*pattern)
		cfg.Rate = *rate
		cfg.WarmupCycles, cfg.MeasureCycles = *warmup, *measure
		cfg.Seed = *seed
		// Only the fields the kind reads are set, and not the default
		// estimator, so a run has its registry point's fingerprint.
		cfg.Scheme = sim.Scheme{Kind: sim.SchemeKind(*scheme)}
		if reads(cfg.Scheme.Kind, congestion.StaticThresholdField) {
			cfg.Scheme.StaticThreshold = *threshold
		}
		if reads(cfg.Scheme.Kind, congestion.TuningPeriodField) {
			cfg.Scheme.TuningPeriod = *period
		}
		if reads(cfg.Scheme.Kind, congestion.EstimatorField) && *estimator != sim.LinearEstimator {
			cfg.Scheme.Estimator = *estimator
		}
		return cfg, nil
	}
}

// profileFlags registers -cpuprofile and -memprofile on fs and returns a
// wrapper that runs a subcommand body under the requested profilers. The
// CPU profile covers the body. The heap profile is written after the
// body returns, when the run's engine is already unreachable, so its
// in-use view holds none of the run: it is the run's allocation profile,
// read with pprof's -sample_index=alloc_space. The GC before writing it
// is needed because a heap profile reports allocations as of the last
// completed collection.
func profileFlags(fs *flag.FlagSet) func(run func() error) error {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	mem := fs.String("memprofile", "", "write the run's allocation profile to `file` (read it with pprof -sample_index=alloc_space)")
	return func(run func() error) error {
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		if err := run(); err != nil {
			return err
		}
		if *mem != "" {
			f, err := os.Create(*mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}
}

// openCache opens the on-disk result store named by a -cache flag. An
// unset flag returns an explicitly nil Store (never a typed-nil concrete
// pointer, which would read as an attached cache to the runner).
func openCache(dir string) (resultcache.Store, error) {
	if dir == "" {
		return nil, nil
	}
	s, err := fsstore.New(dir)
	if err != nil {
		return nil, fmt.Errorf("-cache: %w", err)
	}
	return s, nil
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	build := netFlags(fs)
	specPath := fs.String("spec", "", "run a serialized submission (JSON `file`: spec, config, or registry reference) instead of a flag-built config")
	workers := fs.Int("workers", 0, "parallel simulations for -spec runs (0 = all CPUs)")
	cacheDir := fs.String("cache", "", "result cache `dir` (optional)")
	asJSON := fs.Bool("json", false, "emit the full result as JSON (including time series)")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, err := newRunner(ctx, *workers, *cacheDir)
	if err != nil {
		return err
	}
	if *specPath != "" {
		return prof(func() error { return runSpecFile(runner, *specPath, *asJSON) })
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	return prof(func() error {
		r, err := runConfig(runner, "run", cfg)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(r)
		}
		printResult(r)
		return nil
	})
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runSpecFile executes a serialized submission — an experiment spec, a
// bare config, or a registry reference like {"name":"fig3"} — and
// prints one row per point (or, with -json, the grouped results
// verbatim). The same parser backs the stcc-serve POST /v1/jobs body.
func runSpecFile(runner experiments.Runner, path string, asJSON bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sub, err := experiments.ParseSubmission(data)
	if err != nil {
		return err
	}
	// -json replaces a grid's text report with its grouped results; a
	// registry entry prints its report either way.
	if !asJSON || sub.Name != "" {
		_, err := sub.Run(runner, os.Stdout)
		return err
	}
	grouped, err := sub.Run(runner, io.Discard)
	if err != nil {
		return err
	}
	return printJSON(grouped)
}

// reads reports whether the registered scheme kind reads field.
func reads(kind sim.SchemeKind, field congestion.Fields) bool {
	_, fields, _ := congestion.Find(string(kind))
	return fields&field != 0
}

func printResult(r sim.Result) {
	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("deadlock mode     %s\n", r.Mode)
	fmt.Printf("pattern           %s\n", r.Pattern)
	fmt.Printf("offered           %.5f packets/node/cycle\n", r.OfferedRate)
	fmt.Printf("accepted          %.4f flits/node/cycle (%.5f packets/node/cycle)\n", r.AcceptedFlits, r.AcceptedPackets)
	fmt.Printf("network latency   avg %.1f  p95 %.1f  max %.0f cycles\n",
		r.AvgNetworkLatency, r.P95NetworkLatency, r.MaxNetworkLatency)
	fmt.Printf("total latency     avg %.1f cycles (incl. source queueing)\n", r.AvgTotalLatency)
	fmt.Printf("hops              avg %.2f\n", r.AvgHops)
	fmt.Printf("packets           created %d  injected %d  delivered %d\n",
		r.PacketsCreated, r.PacketsInjected, r.PacketsDelivered)
	fmt.Printf("deadlocks         %d recoveries\n", r.Recoveries)
	fmt.Printf("full buffers      avg %.1f\n", r.AvgFullBuffers)
	if reads(r.Scheme, congestion.KeepTraceField) { // a kind with a threshold trace has a threshold
		fmt.Printf("final threshold   %.1f buffers\n", r.FinalThreshold)
		fmt.Printf("throttled cycles  %d (%d denials)\n", r.ThrottledCycles, r.ThrottleDenials)
	}
}

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	build := netFlags(fs)
	var defRates []string
	for _, rate := range experiments.DefaultRates {
		defRates = append(defRates, strconv.FormatFloat(rate, 'g', -1, 64))
	}
	rates := fs.String("rates", strings.Join(defRates, ","), "comma-separated injection rates")
	workers := fs.Int("workers", 0, "parallel simulations (0 = all CPUs)")
	cacheDir := fs.String("cache", "", "result cache `dir` (optional)")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, err := newRunner(ctx, *workers, *cacheDir)
	if err != nil {
		return err
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	var parsed []float64
	for _, part := range strings.Split(*rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad rate %q: %w", part, err)
		}
		parsed = append(parsed, rate)
	}
	return prof(func() error {
		// The sweep is a one-group spec, so it shares the generic
		// runner and result cache with the registry experiments.
		name := fmt.Sprintf("%s/%s/%s", cfg.Scheme.Kind, cfg.Mode, cfg.Pattern)
		spec := experiments.NewSpec("sweep", name)
		g := experiments.Group{Name: name}
		for _, rate := range parsed {
			c := cfg
			c.Rate = rate
			g.Points = append(g.Points, experiments.Point{Label: fmt.Sprintf("rate %g", rate), Config: c})
		}
		spec.Groups = append(spec.Groups, g)
		grouped, err := runner.RunSpec(spec)
		if err != nil {
			return err
		}
		experiments.PrintCurves(os.Stdout, "rate sweep", []experiments.Curve{experiments.GroupCurve(g, grouped[0])})
		return nil
	})
}

func cmdBursty(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bursty", flag.ExitOnError)
	build := netFlags(fs)
	def := traffic.PaperBurstyOptions{}.WithDefaults()
	lowDur := fs.Int64("lowdur", def.LowDuration, "low-load phase duration (cycles)")
	highDur := fs.Int64("highdur", def.HighDuration, "high-load burst duration (cycles)")
	lowInt := fs.Int64("lowint", def.LowInterval, "low-load regeneration interval")
	highInt := fs.Int64("highint", def.HighInterval, "high-load regeneration interval")
	sample := fs.Int64("sample", 1024, "throughput sample interval (cycles)")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	cfg.ScheduleSpec = traffic.PaperBurstySpec(traffic.PaperBurstyOptions{
		LowDuration: *lowDur, HighDuration: *highDur,
		LowInterval: *lowInt, HighInterval: *highInt,
	})
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = cfg.ScheduleSpec.TotalDuration()
	cfg.SampleInterval = *sample
	return prof(func() error {
		r, err := runConfig(experiments.Runner{Ctx: ctx}, "bursty", cfg)
		if err != nil {
			return err
		}
		printResult(r)
		fmt.Println()
		fmt.Printf("%12s %14s\n", "cycle", "throughput")
		for i, v := range r.Throughput.Values {
			fmt.Printf("%12d %14.4f\n", r.Throughput.CycleAt(i), v)
		}
		return nil
	})
}

func cmdTrace(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	build := netFlags(fs)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	if !reads(cfg.Scheme.Kind, congestion.KeepTraceField) {
		traced := slices.DeleteFunc(congestion.Names(), func(k string) bool { return !reads(sim.SchemeKind(k), congestion.KeepTraceField) })
		return fmt.Errorf("-scheme %s has no threshold to trace (want one of %v)", cfg.Scheme.Kind, traced)
	}
	cfg.Scheme.KeepTrace = true
	return prof(func() error {
		r, err := runConfig(experiments.Runner{Ctx: ctx}, "trace", cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%12s %12s %14s %12s\n", "cycle", "threshold", "tput(flits)", "decision")
		for _, tp := range r.ThresholdTrace {
			fmt.Printf("%12d %12.1f %14.0f %12s\n", tp.Cycle, tp.Threshold, tp.Throughput, tp.Decision)
		}
		return nil
	})
}

func cmdCompare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	build := netFlags(fs)
	seedsFlag := fs.String("seeds", "1,2,3", "comma-separated seeds for replication")
	workers := fs.Int("workers", 0, "parallel simulations (0 = all CPUs)")
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	schemeSet := false
	fs.Visit(func(f *flag.Flag) { schemeSet = schemeSet || f.Name == "scheme" })
	if schemeSet {
		return errors.New("compare runs base, alo, static and tune; it takes no -scheme")
	}
	runner, err := newRunner(ctx, *workers, "")
	if err != nil {
		return err
	}
	cfg, err := build()
	if err != nil {
		return err
	}
	// The static and tune rows are the configs run builds for the same
	// flags, so -threshold, -estimator and -period reach them; the base
	// and alo rows take none of the three.
	schemes := []sim.Scheme{{Kind: sim.Base}, {Kind: sim.ALO}}
	for _, kind := range []sim.SchemeKind{sim.StaticGlobal, sim.SelfTuned} {
		if err := fs.Set("scheme", string(kind)); err != nil {
			return err
		}
		c, err := build()
		if err != nil {
			return err
		}
		schemes = append(schemes, c.Scheme)
	}
	var seeds []int64
	for _, part := range strings.Split(*seedsFlag, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", part, err)
		}
		seeds = append(seeds, seed)
	}
	return prof(func() error {
		rows, err := analysis.Compare(runner, cfg, schemes, seeds)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %22s %20s %14s\n", "scheme", "accepted (flits/n/cyc)", "latency (cycles)", "recoveries")
		for _, r := range rows {
			fmt.Printf("%-14s %12.4f +- %6.4f %12.1f +- %5.1f %9.0f +- %4.0f\n",
				r.Name,
				r.Rep.Accepted.Mean, r.Rep.Accepted.StdDev,
				r.Rep.Latency.Mean, r.Rep.Latency.StdDev,
				r.Rep.Recoveries.Mean, r.Rep.Recoveries.StdDev)
		}
		return nil
	})
}
