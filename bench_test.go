// Benchmarks that regenerate every table and figure of the paper's
// evaluation section, printing the same rows/series the paper reports,
// plus micro-benchmarks of the simulator's hot paths.
//
// Each BenchmarkExperiments sub-benchmark performs a full (scaled-down)
// experiment per iteration, so b.N is normally 1:
//
//	go test -bench . -benchtime 1x
//
// Set STCC_BENCH_SCALE=quick or =paper to run longer experiments (the
// default "bench" scale reproduces every shape in seconds-to-minutes per
// figure; "paper" runs the published 600k-cycle methodology).
package stcc

import (
	"bytes"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/shapes"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// benchScale selects experiment run lengths for the figure benchmarks.
func benchScale() experiments.Scale {
	switch os.Getenv("STCC_BENCH_SCALE") {
	case "paper":
		return experiments.Paper
	case "quick":
		return experiments.Quick
	default:
		return experiments.Scale{Warmup: 4_000, Measure: 12_000, BurstLow: 5_000, BurstHigh: 8_000}
	}
}

// printOnce guards the report output so repeated benchmark iterations
// (or -count>1) do not spam the log.
var printOnce sync.Map

// BenchmarkExperiments regenerates every table, figure and extension
// study of the paper's evaluation through the experiment registry: one
// sub-benchmark per entry, in the paper's order, each running the
// entry's whole grid per iteration and printing its report once.
//
//	go test -bench Experiments/fig3 -benchtime 1x
func BenchmarkExperiments(b *testing.B) {
	for _, name := range experiments.PaperOrder {
		e, _ := experiments.Lookup(name)
		b.Run(name, func(b *testing.B) {
			var out bytes.Buffer
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := e.Run(experiments.RunContext{Scale: benchScale(), Out: &out}); err != nil {
					b.Fatal(err)
				}
			}
			if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
				os.Stdout.Write(out.Bytes())
			}
		})
	}
}

// ---- Micro-benchmarks of the simulator's hot paths. ----

// BenchmarkFabricStep measures one network cycle of every fabric shape
// in internal/shapes: the paper's 256-node fabric and a 4096-node torus,
// each idle, at low load and saturated. The idle and low cases are where
// the per-node active-set counters pay off (most routers are skipped in
// O(1)); the saturated case checks the bookkeeping does not slow the
// full-scan regime down. Injection draws from a prefilled packet.Pool
// fed by the delivery hook, so the numbers reflect the fabric's own
// steady-state allocation behavior rather than the harness's.
func BenchmarkFabricStep(b *testing.B) {
	for _, s := range shapes.Fabrics {
		var run *shapes.FabricRun
		b.Run(s.Name, func(b *testing.B) {
			if run == nil { // warm up once, not once per b.N probe
				run = s.Start()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.Step()
			}
		})
	}
}

// BenchmarkEngineStep measures a full engine cycle (generation,
// throttling, network step, sampling) at every engine shape in
// internal/shapes. The engine is stepped to steady state before the
// timer starts, so ns/op and allocs/op describe the steady-state hot
// path, not the construction and ramp-up transient.
func BenchmarkEngineStep(b *testing.B) {
	for _, s := range shapes.Engines {
		var e *sim.Engine
		b.Run(s.Name, func(b *testing.B) {
			if e == nil { // warm up once, not once per b.N probe
				var err error
				if e, err = s.Start(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkTopologyMinimalPorts measures adaptive route candidate
// generation.
func BenchmarkTopologyMinimalPorts(b *testing.B) {
	topo := topology.MustNew(16, 2)
	buf := make([]int, 0, 4)
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(i % topo.Nodes())
		dst := topology.NodeID((i * 37) % topo.Nodes())
		buf = topo.MinimalPorts(src, dst, buf[:0])
	}
}

// BenchmarkLinearExtrapolation measures the congestion estimator.
func BenchmarkLinearExtrapolation(b *testing.B) {
	var e core.LinearExtrapolation
	e.OnSnapshot(sideband.Snapshot{Taken: 0, FullBuffers: 100})
	e.OnSnapshot(sideband.Snapshot{Taken: 32, FullBuffers: 200})
	for i := 0; i < b.N; i++ {
		e.Estimate(int64(40 + i%32))
	}
}

// BenchmarkTunerOnPeriod measures one hill-climbing step.
func BenchmarkTunerOnPeriod(b *testing.B) {
	tu := core.MustNewTuner(core.DefaultTunerConfig(3072))
	for i := 0; i < b.N; i++ {
		tu.OnPeriod(float64(1000+i%500), float64(i%800), i%3 == 0)
	}
}

// BenchmarkPatternDest measures destination generation for the paper's
// four patterns.
func BenchmarkPatternDest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []traffic.PatternKind{traffic.UniformRandom, traffic.BitReversal, traffic.PerfectShuffle, traffic.Butterfly} {
		p := traffic.MustPattern(kind, 256)
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Dest(topology.NodeID(i%256), rng)
			}
		})
	}
}
