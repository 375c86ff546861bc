// Command stcc-bench measures the simulator's steady-state hot paths and
// emits a machine-readable JSON report (ns/op, B/op, allocs/op per
// shape). The checked-in BENCH_PR<n>.json files form the repo's
// benchmark trajectory: each performance PR records the shapes it
// changed, so regressions are visible as diffs rather than folklore.
//
//	go run ./cmd/stcc-bench -label PR3 -out BENCH_PR3.json
//
// -shapes filters the measured shapes by regular expression, so a PR
// touching only the torus path can re-measure just those points:
//
//	go run ./cmd/stcc-bench -shapes 'torus4096/low'
//
// -baseline names the previous checked-in report: its shapes become the
// new report's baseline block, and the fresh run is diffed against them,
// exiting nonzero if any shared shape regressed past -tolerance. This is
// how CI turns the trajectory into a gate. Baseline shapes the fresh run
// did not measure are skipped.
//
//	go run ./cmd/stcc-bench -baseline BENCH_PR8.json -tolerance 0.5
//
// The 256-node shapes mirror BenchmarkFabricStep and BenchmarkEngineStep:
// the bare router fabric and the full engine, each at idle, low load, and
// saturation. The torus4096 shapes step a 16-ary 3-cube (4096 nodes)
// through the same three regimes. Their names keep the "/w1" suffix of
// the trajectory's earlier serial-versus-sharded pairs, so old reports
// still diff against them.
// Every fabric and engine is stepped to steady state before the timed
// region, so the numbers describe the recurring per-cycle cost — the
// construction and ramp-up transients are excluded by design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
)

// warmupCycles matches the steady-state gate in alloc_regression_test.go:
// long enough that every transient growth source (pool fill, queue ramp,
// statistics buffers) has settled.
const warmupCycles = 8000

// torusWarmupCycles is the big-topology warm-up. The 4096-node torus
// costs roughly 16x a 256-node cycle, so the full warmupCycles would
// dominate the run; 2000 cycles is past its occupancy ramp at every
// measured rate.
const torusWarmupCycles = 2000

// Shape is one measured operating point.
type Shape struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Report is the emitted document.
type Report struct {
	Label     string  `json:"label"`
	GoVersion string  `json:"go_version"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Shapes    []Shape `json:"shapes"`
	// Baseline carries the prior trajectory point the shapes should be
	// read against: the shapes of the -baseline report.
	Baseline []Shape `json:"baseline,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// fabricShape describes one fabric operating point to measure.
type fabricShape struct {
	name    string
	k, n    int
	rate    float64
	warmup  int
	prefill int // packets stocked in the pool; covers peak in-flight
}

func main() {
	label := flag.String("label", "dev", "trajectory label recorded in the report (e.g. PR3)")
	out := flag.String("out", "", "output file (default stdout)")
	shapesRE := flag.String("shapes", "", "regexp filtering which shapes to measure (default: all)")
	baselineFile := flag.String("baseline", "", "checked-in BENCH_*.json to diff against; regressions past -tolerance exit nonzero")
	tolerance := flag.Float64("tolerance", 0.5, "allowed fractional ns/op regression vs -baseline (0.5 = +50%)")
	flag.IntVar(&repeats, "repeat", 1, "timed windows per shape; the report keeps the fastest (warmup runs once)")
	flag.Parse()
	if repeats < 1 {
		repeats = 1
	}

	var filter *regexp.Regexp
	if *shapesRE != "" {
		re, err := regexp.Compile(*shapesRE)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stcc-bench: bad -shapes regexp: %v\n", err)
			os.Exit(2)
		}
		filter = re
	}
	keep := func(name string) bool { return filter == nil || filter.MatchString(name) }

	report := Report{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Note: "steady-state per-cycle cost; warmup excluded (store/* shapes " +
			"measure one Put+Get of a real result per op instead: mem is the " +
			"marshal floor, fs adds file I/O plus an atomic rename, remote " +
			"adds a loopback HTTP round trip to a peer daemon).",
	}
	var base *Report
	if *baselineFile != "" {
		b, err := readReport(*baselineFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stcc-bench: %v\n", err)
			os.Exit(1)
		}
		base = b
		report.Baseline = b.Shapes
		report.Note += " Baseline is " + *baselineFile + "."
	}

	shapes := []fabricShape{
		{"fabric/idle", 16, 2, 0, warmupCycles, 4096},
		{"fabric/low", 16, 2, 0.002, warmupCycles, 4096},
		{"fabric/saturated", 16, 2, 0.2, warmupCycles, 4096},
		{"fabric/torus4096/idle/w1", 16, 3, 0, torusWarmupCycles, 65536},
		{"fabric/torus4096/low/w1", 16, 3, 0.002, torusWarmupCycles, 65536},
		{"fabric/torus4096/saturated/w1", 16, 3, 0.2, torusWarmupCycles, 65536},
	}
	type point struct {
		name string
		run  func() Shape
	}
	var points []point
	for _, s := range shapes {
		s := s
		points = append(points, point{s.name, func() Shape { return measureFabric(s) }})
	}
	for _, tc := range []struct {
		name   string
		rate   float64
		scheme sim.Scheme
	}{
		{"engine/idle", 0.0001, sim.Scheme{Kind: sim.SelfTuned}},
		{"engine/low", 0.02, sim.Scheme{Kind: sim.SelfTuned}},
		{"engine/saturated", 0.06, sim.Scheme{Kind: sim.SelfTuned}},
		// The feedback-driven controllers at the same saturated point:
		// these carry the DECbit marking fold, the per-packet feedback
		// events, and (for notify) the side-band notification wheel, so
		// their per-cycle cost relative to engine/saturated is the price
		// of the feedback path itself.
		{"engine/aimd-saturated", 0.06, sim.Scheme{Kind: sim.AIMD}},
		{"engine/notify-saturated", 0.06, sim.Scheme{Kind: sim.Notify}},
	} {
		tc := tc
		points = append(points, point{tc.name, func() Shape { return measureEngine(tc.name, tc.rate, tc.scheme) }})
	}
	for _, sp := range storePoints() {
		sp := sp
		points = append(points, point{sp.Name, sp.Run})
	}
	merged := map[string]*Shape{}
	var order []string
	for round := 0; round < repeats; round++ {
		for _, p := range points {
			if !keep(p.name) {
				continue
			}
			s := p.run()
			if best, ok := merged[p.name]; ok {
				mergeShape(best, s)
			} else {
				merged[p.name] = &s
				order = append(order, p.name)
			}
			fmt.Fprintf(os.Stderr, "%-30s round %d/%d done\n", p.name, round+1, repeats)
		}
	}
	for _, name := range order {
		report.Shapes = append(report.Shapes, *merged[name])
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stcc-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "stcc-bench: %v\n", err)
		os.Exit(1)
	}

	if base != nil {
		if regressions := compareBaseline(report.Shapes, base.Shapes, *tolerance); regressions > 0 {
			fmt.Fprintf(os.Stderr, "stcc-bench: %d shape(s) regressed past tolerance %.0f%%\n",
				regressions, *tolerance*100)
			os.Exit(1)
		}
	}
}

// readReport parses a checked-in BENCH_*.json report.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// compareBaseline diffs the fresh shapes against the baseline shapes and
// prints a per-shape delta line for every shape the two runs share.
// A shape counts as a regression when its ns/op exceeds the baseline by
// more than the tolerance fraction, when its allocs/op grew at all, or
// when its bytes/op grew from an exact zero — the bytes and allocs gates
// are strict because the hot path's contract is "no per-cycle growth",
// not "bounded growth".
func compareBaseline(fresh, baseline []Shape, tol float64) int {
	byName := make(map[string]Shape, len(baseline))
	for _, s := range baseline {
		byName[s.Name] = s
	}
	regressions := 0
	for _, s := range fresh {
		old, ok := byName[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "%-34s %12.1f ns/op (no baseline entry)\n", s.Name, s.NsPerOp)
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = (s.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		}
		verdict := "ok"
		switch {
		case s.NsPerOp > old.NsPerOp*(1+tol):
			verdict = "REGRESSION"
			regressions++
		case s.AllocsPerOp > old.AllocsPerOp:
			verdict = "REGRESSION (allocs/op grew)"
			regressions++
		case old.BytesPerOp == 0 && s.BytesPerOp > 0:
			verdict = "REGRESSION (bytes/op grew from zero)"
			regressions++
		case s.BytesPerOp > old.BytesPerOp && float64(s.BytesPerOp) > float64(old.BytesPerOp)*(1+tol):
			verdict = "REGRESSION (bytes/op)"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "%-34s %12.1f ns/op vs %12.1f (%+6.1f%%)  %3d B/op vs %3d  %s\n",
			s.Name, s.NsPerOp, old.NsPerOp, delta, s.BytesPerOp, old.BytesPerOp, verdict)
	}
	return regressions
}

// repeats is how many measurement rounds the whole shape list runs
// (-repeat). Shared machines drift on a scale of minutes, so repeating
// one shape back-to-back just measures the same slow patch three
// times; instead the FULL list is re-measured round-robin and each
// shape keeps its fastest round — a slow patch hits every shape in a
// round equally, and the per-shape minimum is the standard low-noise
// estimator for a deterministic workload. Allocation stats take the
// MAXIMUM across rounds instead: a leak must not hide behind a lucky
// window.
var repeats = 1

// mergeShape folds a fresh round's measurement into the trajectory
// (min ns/op, max B/op and allocs/op).
func mergeShape(best *Shape, s Shape) {
	if s.NsPerOp < best.NsPerOp {
		best.NsPerOp, best.Iterations = s.NsPerOp, s.Iterations
	}
	if s.BytesPerOp > best.BytesPerOp {
		best.BytesPerOp = s.BytesPerOp
	}
	if s.AllocsPerOp > best.AllocsPerOp {
		best.AllocsPerOp = s.AllocsPerOp
	}
}

func toShape(name string, r testing.BenchmarkResult) Shape {
	return Shape{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Iterations:  r.N,
	}
}

// measureFabric times one network cycle of a k-ary n-cube fabric with
// pool-fed injection at the given per-node rate. The pool is prefilled
// past the shape's peak in-flight population so B/op reflects the
// fabric, not pool growth.
func measureFabric(s fabricShape) Shape {
	topo := topology.MustNew(s.k, s.n)
	fab := router.MustNew(router.Config{
		Topo: topo, VCs: 3, BufDepth: 8, Mode: router.Recovery, DeadlockTimeout: 160,
	})
	rng := rand.New(rand.NewSource(1))
	pool := packet.NewPool()
	pool.Prefill(s.prefill, 8*s.n*s.k) // trail capacity covers worst-case hops
	fab.OnDelivered = pool.Put
	var id packet.ID
	inject := func() {
		if s.rate == 0 {
			return
		}
		for n := 0; n < topo.Nodes(); n++ {
			if rng.Float64() < s.rate && fab.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if dst == topology.NodeID(n) {
					continue
				}
				fab.StartInjection(pool.Get(id, topology.NodeID(n), dst, 16, fab.Now()))
				id++
			}
		}
	}
	for i := 0; i < s.warmup; i++ {
		inject()
		fab.Step()
	}
	return toShape(s.name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inject()
			fab.Step()
		}
	}))
}

// measureEngine times a full engine cycle (generation, throttling,
// injection, network step, sampling) under the given scheme.
func measureEngine(name string, rate float64, scheme sim.Scheme) Shape {
	cfg := sim.NewConfig()
	cfg.Rate = rate
	cfg.Scheme = scheme
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40 // the loops below pace the cycles
	e, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stcc-bench: %v\n", err)
		os.Exit(1)
	}
	for i := 0; i < warmupCycles; i++ {
		e.Step()
	}
	return toShape(name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	}))
}
