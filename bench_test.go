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
	"repro/internal/packet"
	"repro/internal/router"
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

// BenchmarkRouterStepLoaded measures one network cycle of the paper's
// 256-node fabric under moderate load.
func BenchmarkRouterStepLoaded(b *testing.B) {
	topo := topology.MustNew(16, 2)
	fab := router.MustNew(router.Config{
		Topo: topo, VCs: 3, BufDepth: 8, Mode: router.Recovery, DeadlockTimeout: 160,
	})
	rng := rand.New(rand.NewSource(1))
	pool := packet.NewPool()
	fab.OnDelivered = pool.Put
	var id packet.ID
	inject := func() {
		for n := 0; n < topo.Nodes(); n++ {
			if rng.Float64() < 0.02 && fab.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(topo.Nodes()))
				if dst == topology.NodeID(n) {
					continue
				}
				fab.StartInjection(pool.Get(id, topology.NodeID(n), dst, 16, fab.Now()))
				id++
			}
		}
	}
	for i := 0; i < 2000; i++ { // warm the network up
		inject()
		fab.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
		fab.Step()
	}
}

// BenchmarkFabricStep measures one network cycle of the paper's 256-node
// fabric at three occupancy regimes. The idle and low cases are where the
// per-node active-set counters pay off (most routers are skipped in O(1));
// the saturated case checks the bookkeeping does not slow the full-scan
// regime down. Injection draws from a packet.Pool fed by the delivery
// hook, so the numbers reflect the fabric's own steady-state allocation
// behavior rather than the harness's.
func BenchmarkFabricStep(b *testing.B) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"idle", 0},
		{"low", 0.002},
		{"saturated", 0.2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo := topology.MustNew(16, 2)
			fab := router.MustNew(router.Config{
				Topo: topo, VCs: 3, BufDepth: 8, Mode: router.Recovery, DeadlockTimeout: 160,
			})
			rng := rand.New(rand.NewSource(1))
			pool := packet.NewPool()
			pool.Prefill(4096, 32) // cover peak in-flight so Get never allocates mid-run
			fab.OnDelivered = pool.Put
			var id packet.ID
			inject := func() {
				if tc.rate == 0 {
					return
				}
				for n := 0; n < topo.Nodes(); n++ {
					if rng.Float64() < tc.rate && fab.CanStartInjection(topology.NodeID(n)) {
						dst := topology.NodeID(rng.Intn(topo.Nodes()))
						if dst == topology.NodeID(n) {
							continue
						}
						fab.StartInjection(pool.Get(id, topology.NodeID(n), dst, 16, fab.Now()))
						id++
					}
				}
			}
			for i := 0; i < 2000; i++ { // reach steady-state occupancy
				inject()
				fab.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inject()
				fab.Step()
			}
		})
	}
}

// BenchmarkEngineStep measures a full engine cycle (generation,
// throttling, network step, sampling) at three operating points of the
// self-tuned configuration. The engine is stepped to steady state before
// the timer starts, so ns/op and allocs/op describe the steady-state hot
// path, not the construction and ramp-up transient.
func BenchmarkEngineStep(b *testing.B) {
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"idle", 0.0001},
		{"low", 0.02},
		{"saturated", 0.06},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := newBenchEngine(b, tc.rate)
			for i := 0; i < 2000; i++ { // reach steady-state occupancy
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// newBenchEngine builds a self-tuned engine for incremental stepping;
// MeasureCycles is effectively unbounded because the caller paces the
// cycle loop with Step.
func newBenchEngine(b *testing.B, rate float64) *sim.Engine {
	b.Helper()
	cfg := sim.NewConfig()
	cfg.Rate = rate
	cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40
	e, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
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

// BenchmarkSimCycleEndToEnd measures a full engine cycle including
// traffic generation, throttling and statistics.
func BenchmarkSimCycleEndToEnd(b *testing.B) {
	cfg := sim.NewConfig()
	cfg.Rate = 0.02
	cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = int64(b.N) + 2000
	e, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
