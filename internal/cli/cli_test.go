package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/congestion"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// small returns flags for a tiny, fast run.
func small(extra ...string) []string {
	base := []string{"-k", "4", "-warmup", "200", "-measure", "1500", "-rate", "0.005"}
	return append(base, extra...)
}

func TestCmdRunSchemes(t *testing.T) {
	for _, scheme := range []string{"base", "alo", "tune", "tune-hillclimb"} {
		if err := cmdRun(context.Background(), small("-scheme", scheme)); err != nil {
			t.Errorf("run -scheme %s: %v", scheme, err)
		}
	}
	if err := cmdRun(context.Background(), small("-scheme", "static", "-threshold", "50")); err != nil {
		t.Errorf("run -scheme static: %v", err)
	}
}

func TestCmdRunJSON(t *testing.T) {
	if err := cmdRun(context.Background(), small("-json")); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunAvoidance(t *testing.T) {
	if err := cmdRun(context.Background(), small("-mode", "avoidance")); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunRejectsBadMode(t *testing.T) {
	if err := cmdRun(context.Background(), small("-mode", "nope")); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestCmdRunRejectsBadScheme(t *testing.T) {
	if err := cmdRun(context.Background(), small("-scheme", "nope")); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

// TestCmdRunRejectsWindowWithoutSample runs a config whose default
// sample interval, g = 1024 cycles, is longer than its measured window.
// It once printed "accepted 0.0000" beside 2,408 delivered packets.
func TestCmdRunRejectsWindowWithoutSample(t *testing.T) {
	err := cmdRun(context.Background(), []string{"-k", "16", "-hop", "64", "-warmup", "0", "-measure", "1000", "-rate", "0.01"})
	if err == nil || !strings.Contains(err.Error(), "sideband_hop_delay") {
		t.Fatalf("run = %v, want an error naming sideband_hop_delay", err)
	}
}

func TestCmdSweep(t *testing.T) {
	if err := cmdSweep(context.Background(), small("-rates", "0.002,0.005")); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSweepRejectsBadRates(t *testing.T) {
	if err := cmdSweep(context.Background(), small("-rates", "a,b")); err == nil {
		t.Fatal("bad rates accepted")
	}
}

func TestCmdSweepWithCache(t *testing.T) {
	dir := t.TempDir()
	args := small("-rates", "0.002,0.005", "-cache", dir)
	if err := cmdSweep(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("cache holds %d entries after 2-rate sweep, want 2", len(entries))
	}
	// Second run is served from the cache and must still succeed.
	if err := cmdSweep(context.Background(), args); err != nil {
		t.Fatal(err)
	}
}

// A -cache value with a scheme is refused with an error naming the
// flag, not taken for a relative path: fsstore would otherwise create
// an "http:" directory tree in the working directory.
func TestCacheRejectsURL(t *testing.T) {
	for _, url := range []string{"http://127.0.0.1:8081", "https://127.0.0.1:8443/cache"} {
		_, err := openCache(url)
		if err == nil {
			t.Errorf("openCache(%q) accepted a URL", url)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-cache") || !strings.Contains(msg, "directory") {
			t.Errorf("openCache(%q) error %q does not name -cache and say it takes a directory", url, msg)
		}
	}
	err := cmdSweep(context.Background(), small("-rates", "0.005", "-cache", "http://127.0.0.1:8081"))
	if err == nil || !strings.Contains(err.Error(), "-cache") {
		t.Errorf("sweep with a URL -cache: err = %v, want a -cache error", err)
	}
	if _, err := os.Stat("http:"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a URL -cache left an http: path behind (stat: %v)", err)
	}
}

func TestCmdBursty(t *testing.T) {
	err := cmdBursty(context.Background(), small("-lowdur", "300", "-highdur", "400",
		"-lowint", "200", "-highint", "40", "-sample", "256"))
	if err != nil {
		t.Fatal(err)
	}
}

func TestCmdTrace(t *testing.T) {
	if err := cmdTrace(context.Background(), small("-scheme", "tune")); err != nil {
		t.Fatal(err)
	}
}

// stdout runs fn with os.Stdout sent to a file and returns what it
// printed.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// trace simulates the configuration run simulates: it follows -rate,
// and its last traced threshold is run's final threshold.
func TestCmdTraceTracesRun(t *testing.T) {
	ctx := context.Background()
	flags := func(rate string) []string {
		return []string{"-k", "4", "-warmup", "200", "-measure", "1500", "-scheme", "tune", "-rate", rate}
	}
	low := stdout(t, func() error { return cmdTrace(ctx, flags("0.005")) })
	high := stdout(t, func() error { return cmdTrace(ctx, flags("0.05")) })
	if low == high {
		t.Error("trace output at -rate 0.005 equals the output at -rate 0.05")
	}
	lines := strings.Split(strings.TrimSpace(high), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace printed no periods:\n%s", high)
	}
	last := strings.Fields(lines[len(lines)-1])
	var r sim.Result
	if err := json.Unmarshal([]byte(stdout(t, func() error { return cmdRun(ctx, append(flags("0.05"), "-json")) })), &r); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%.1f", r.FinalThreshold); last[1] != want {
		t.Errorf("last traced threshold %s, run's final threshold %s", last[1], want)
	}
}

// A scheme without a threshold is refused, naming the schemes that
// have one, instead of being traced as another scheme.
func TestCmdTraceRejectsThresholdlessScheme(t *testing.T) {
	err := cmdTrace(context.Background(), small("-scheme", "base"))
	if err == nil {
		t.Fatal("trace -scheme base succeeded")
	}
	for _, name := range []string{"static", "tune", "tune-hillclimb"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

// A flag-built run files its result in the cache, and a rerun is served
// from it: the store holds exactly one entry after both.
func TestCmdRunWithCache(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 2; i++ {
		if err := cmdRun(context.Background(), small("-cache", dir)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("after run %d the cache holds %d entries, want 1", i, len(entries))
		}
	}
}

// -period and -estimator configure only the threshold schemes: a base
// run with either flag is the run without it and shares its cache entry.
func TestNetFlagsUnusedKnobsShareCache(t *testing.T) {
	dir := t.TempDir()
	for _, extra := range [][]string{nil, {"-period", "96"}, {"-estimator", "last"}} {
		args := append([]string{"-k", "4", "-warmup", "100", "-measure", "400", "-scheme", "base", "-cache", dir}, extra...)
		stdout(t, func() error { return cmdRun(context.Background(), args) })
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("after a base run with %v the cache holds %d entries, want 1", extra, len(entries))
		}
	}
}

// A flag-built config has the fingerprint of the registry point with
// the same settings, so stcc and stcc-paper share cache entries.
func TestNetFlagsMatchRegistryPoints(t *testing.T) {
	quick := []string{"-warmup", "8000", "-measure", "24000"}
	for _, c := range []struct {
		entry, label string
		flags        []string
	}{
		{"fig3", "tune/recovery rate 0.03", []string{"-scheme", "tune", "-rate", "0.03"}},
		{"fig5", "butterfly/static500 rate 0.02", []string{"-pattern", "butterfly", "-scheme", "static", "-threshold", "500", "-rate", "0.02"}},
		{"ext1", "last", []string{"-scheme", "tune", "-estimator", "last", "-rate", "0.03"}},
	} {
		fs := flag.NewFlagSet(c.entry, flag.ContinueOnError)
		build := netFlags(fs)
		if err := fs.Parse(append(c.flags, quick...)); err != nil {
			t.Fatal(err)
		}
		cfg, err := build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		e, _ := experiments.Lookup(c.entry)
		var want string
		for _, p := range e.Spec(experiments.Quick).Points() {
			if p.Label == c.label {
				if want, err = p.Config.Fingerprint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if want == "" {
			t.Errorf("%s has no point %q", c.entry, c.label)
		} else if got != want {
			t.Errorf("flags %v fingerprint %.16s, %s point %q has %.16s", c.flags, got, c.entry, c.label, want)
		}
	}
}

func TestNetFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	build := netFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 16 || cfg.VCs != 3 || cfg.DeadlockTimeout != 160 {
		t.Errorf("defaults: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default flags invalid: %v", err)
	}
}

func TestCmdCompare(t *testing.T) {
	if err := cmdCompare(context.Background(), small("-seeds", "1,2")); err != nil {
		t.Fatal(err)
	}
}

// compare's tune row is the config run builds for the same flags:
// -estimator and -period reach it.
func TestCmdCompareTuneRowMatchesRun(t *testing.T) {
	ctx := context.Background()
	net := []string{"-k", "8", "-rate", "0.03", "-warmup", "500", "-measure", "2000"}
	tuned := append(net[:len(net):len(net)], "-estimator", "last", "-period", "96")
	run := func(flags []string) string {
		var r sim.Result
		out := stdout(t, func() error { return cmdRun(ctx, append(flags, "-scheme", "tune", "-json")) })
		if err := json.Unmarshal([]byte(out), &r); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%.4f %.1f %d", r.AcceptedFlits, r.AvgNetworkLatency, r.Recoveries)
	}
	want := run(tuned)
	if def := run(net); def == want {
		t.Fatalf("-estimator last -period 96 does not change run's tune result (%s): pick flags that do", def)
	}
	out := stdout(t, func() error { return cmdCompare(ctx, append(tuned, "-seeds", "1", "-workers", "1")) })
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 10 && f[0] == "tune" {
			if got := f[1] + " " + f[4] + " " + f[7]; got != want {
				t.Errorf("compare's tune row reads %s (accepted, latency, recoveries), run reads %s", got, want)
			}
			return
		}
	}
	t.Fatalf("compare printed no tune row:\n%s", out)
}

// compare always runs base, alo, static and tune, so it refuses a
// -scheme it could not honour.
func TestCmdCompareRejectsScheme(t *testing.T) {
	if err := cmdCompare(context.Background(), small("-scheme", "tune")); err == nil {
		t.Fatal("compare accepted -scheme")
	}
}

// TestSimCommandsHonorCancel pins the Ctrl-C path: Main traps SIGINT
// into a context, so a subcommand that ignored it could not be
// interrupted at all. An already-canceled context must stop each one
// with context.Canceled.
func TestSimCommandsHonorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"run":     func() error { return cmdRun(ctx, small()) },
		"bursty":  func() error { return cmdBursty(ctx, small()) },
		"trace":   func() error { return cmdTrace(ctx, small("-scheme", "tune")) },
		"compare": func() error { return cmdCompare(ctx, small("-seeds", "1,2")) },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestNetFlagsHelpListsEveryName requires the -scheme and -pattern help
// to name every registered scheme and built-in pattern.
func TestNetFlagsHelpListsEveryName(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	netFlags(fs)
	for flagName, names := range map[string][]string{
		"scheme":  congestion.Names(),
		"pattern": {"random", "bitreversal", "shuffle", "butterfly", "transpose", "complement", "hotspot"},
		"mode":    {"recovery", "avoidance"},
	} {
		usage := fs.Lookup(flagName).Usage
		for _, name := range names {
			if !strings.Contains(usage, name) {
				t.Errorf("-%s help %q omits %q", flagName, usage, name)
			}
		}
	}
}

func TestCmdCompareRejectsBadSeeds(t *testing.T) {
	if err := cmdCompare(context.Background(), small("-seeds", "x")); err == nil {
		t.Fatal("bad seeds accepted")
	}
}

// Both CLIs must reject a negative worker count with a clear error
// instead of silently treating it as "all CPUs".
func TestNegativeWorkersRejected(t *testing.T) {
	for name, run := range map[string]func() error{
		"sweep":   func() error { return cmdSweep(context.Background(), small("-workers", "-1")) },
		"compare": func() error { return cmdCompare(context.Background(), small("-workers", "-2")) },
		"run":     func() error { return cmdRun(context.Background(), small("-workers", "-3")) },
	} {
		err := run()
		if err == nil {
			t.Errorf("%s accepted negative -workers", name)
			continue
		}
		if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("%s: error %q does not mention -workers", name, err)
		}
	}
	if code := PaperMain([]string{"-exp", "tab1", "-workers", "-1"}); code != 2 {
		t.Errorf("stcc-paper -workers -1 exited %d, want 2", code)
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmdDescribe(t *testing.T) {
	for _, name := range []string{"fig3", "tab1"} {
		if err := cmdDescribe([]string{name}); err != nil {
			t.Errorf("describe %s: %v", name, err)
		}
	}
	if err := cmdDescribe([]string{"nope"}); err == nil {
		t.Error("describe accepted unknown experiment")
	}
	if err := cmdDescribe(nil); err == nil {
		t.Error("describe accepted missing name")
	}
}

func TestCmdEmitSpec(t *testing.T) {
	if err := cmdEmitSpec([]string{"fig1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEmitSpec([]string{"nope"}); err == nil {
		t.Error("emit-spec accepted unknown experiment")
	}
	if err := cmdEmitSpec([]string{"-scale", "nope", "fig1"}); err == nil {
		t.Error("emit-spec accepted unknown scale")
	}
}

// "stcc run -spec" must execute an emitted spec: emit one, shrink it to
// a single fast point, and run it from the file.
func TestCmdRunSpecFile(t *testing.T) {
	e, ok := experiments.Lookup("fig1")
	if !ok {
		t.Fatal("fig1 not registered")
	}
	spec := e.Spec(experiments.Scale{Warmup: 100, Measure: 400, BurstLow: 100, BurstHigh: 100})
	spec.Groups = spec.Groups[:1]
	spec.Groups[0].Points = spec.Groups[0].Points[:1]
	spec.Groups[0].Points[0].Config.K = 4
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun(context.Background(), []string{"-spec", path}); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	// Cached re-run through the same file.
	cache := t.TempDir()
	if err := cmdRun(context.Background(), []string{"-spec", path, "-cache", cache}); err != nil {
		t.Fatalf("run -spec -cache: %v", err)
	}
	if err := cmdRun(context.Background(), []string{"-spec", path, "-cache", cache, "-json"}); err != nil {
		t.Fatalf("cached run -spec -json: %v", err)
	}
}

func TestCmdRunSpecFileRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"bogus":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun(context.Background(), []string{"-spec", bad}); err == nil {
		t.Error("run -spec accepted a spec with unknown fields")
	}
	if err := cmdRun(context.Background(), []string{"-spec", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("run -spec accepted a missing file")
	}
}

func TestCmdExperimentsDoc(t *testing.T) {
	doc := "# Experiments\n\npreamble\n\n" + catalogBegin + "\nOLD-CATALOG-SENTINEL\n" + catalogEnd + "\n\ntrailer\n"
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdExperimentsDoc([]string{"-file", path}); err != nil {
		t.Fatal(err)
	}
	updated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(updated)
	if strings.Contains(got, "OLD-CATALOG-SENTINEL") {
		t.Error("stale catalog content survived regeneration")
	}
	for _, want := range []string{"preamble", "trailer", "| fig3 |", "**ext12**", catalogBegin, catalogEnd} {
		if !strings.Contains(got, want) {
			t.Errorf("regenerated doc missing %q", want)
		}
	}
	// Idempotent: a second run must leave the file unchanged.
	if err := cmdExperimentsDoc([]string{"-file", path}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != got {
		t.Error("experiments-doc is not idempotent")
	}
}

// The committed EXPERIMENTS.md catalog must match the registry; run
// "make experiments-doc" after changing registry.go.
func TestExperimentsDocUpToDate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	updated, err := RenderCatalog(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if updated != string(data) {
		t.Error("EXPERIMENTS.md catalog section is stale; run \"make experiments-doc\"")
	}
}

func TestCmdExperimentsDocMissingMarkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := os.WriteFile(path, []byte("no markers here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdExperimentsDoc([]string{"-file", path}); err == nil {
		t.Error("experiments-doc accepted a document without markers")
	}
}

func TestMainExitCodes(t *testing.T) {
	if code := Main(nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := Main([]string{"bogus"}); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if code := Main([]string{"help"}); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
	if code := Main([]string{"list"}); code != 0 {
		t.Errorf("list: exit %d, want 0", code)
	}
	if code := PaperMain([]string{"-scale", "nope"}); code != 2 {
		t.Errorf("stcc-paper bad scale: exit %d, want 2", code)
	}
	if code := PaperMain([]string{"-exp", "nope"}); code != 2 {
		t.Errorf("stcc-paper unknown experiment: exit %d, want 2", code)
	}
	if code := PaperMain([]string{"-exp", "tab1"}); code != 0 {
		t.Errorf("stcc-paper tab1: exit %d, want 0", code)
	}
}
