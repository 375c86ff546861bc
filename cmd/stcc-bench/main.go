// Command stcc-bench measures the simulator's steady-state hot paths and
// emits a machine-readable JSON report (ns/op, B/op, allocs/op per
// shape); it is the one timer of these shapes. The checked-in
// BENCH_PR<n>.json files form the repo's benchmark trajectory: each
// performance PR records the shapes it changed, so regressions are
// visible as diffs rather than folklore.
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
//	go run ./cmd/stcc-bench -baseline BENCH_PR19.json -tolerance 0.5
//
// The fabric and engine shapes are the internal/shapes table, which the
// allocation gate iterates too: the bare router fabric and the full
// engine on the paper's 256-node network, each idle, at low load and
// saturated (the engine also saturated under aimd and notify), plus a
// 4096-node 16-ary 3-cube fabric at the same three rates. The torus
// names keep the "/w1" suffix of the trajectory's earlier
// serial-versus-sharded pairs, so old reports still diff against them.
// Every fabric and engine is stepped to steady state before the timed
// region, so the numbers describe the recurring per-cycle cost — the
// construction and ramp-up transients are excluded by design. The
// new/<engine shape> rows measure construction instead: one sim.New of
// that shape's configuration per op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/shapes"
	"repro/internal/sim"
)

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
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the run's setting, which can be below NumCPU.
	GOMAXPROCS int     `json:"gomaxprocs"`
	Shapes     []Shape `json:"shapes"`
	// Baseline carries the prior trajectory point the shapes should be
	// read against: the shapes of the -baseline report.
	Baseline []Shape `json:"baseline,omitempty"`
	Note     string  `json:"note,omitempty"`
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
		Label:      *label,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "steady-state per-cycle cost; warmup excluded (new/* shapes " +
			"measure one sim.New per op instead, and store/* shapes one Put+Get " +
			"of a real result: mem is the marshal floor, fs adds file I/O plus " +
			"an atomic rename).",
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

	var points []point
	for _, s := range shapes.Fabrics {
		name := reportName("fabric", s.Name)
		points = append(points, point{name, func() Shape { return measure(name, s.Start()) }})
	}
	for _, s := range shapes.Engines {
		name := reportName("engine", s.Name)
		points = append(points, point{name, func() Shape {
			e, err := s.Start()
			if err != nil {
				fatal(err)
			}
			return measure(name, e)
		}})
	}
	for _, s := range shapes.Engines {
		name := reportName("new", s.Name)
		points = append(points, point{name, func() Shape { return measureNew(name, s.Config()) }})
	}
	points = append(points, storePoints()...)
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

// reportName is a shape's name in the report: kind/name, except that
// the torus shapes keep their "/w1" trajectory names.
func reportName(kind, name string) string {
	if regime, ok := strings.CutPrefix(name, "torus4096-"); ok {
		return kind + "/torus4096/" + regime + "/w1"
	}
	return kind + "/" + name
}

// measureNew times one sim.New of cfg per op.
func measureNew(name string, cfg sim.Config) Shape {
	return toShape(name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.New(cfg); err != nil {
				fatal(err)
			}
		}
	}))
}

// measure times one Step per op of a shape that Start has already
// built and warmed up.
func measure(name string, shape interface{ Step() }) Shape {
	return toShape(name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			shape.Step()
		}
	}))
}
