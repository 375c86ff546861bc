// Allocation regression gate for the steady-state hot path.
//
// After warm-up, one simulated cycle must not allocate: packets come from
// the per-engine free list, router state lives in arenas sized at
// construction, source queues reuse freed pages, latencies are counted
// in a histogram sized by the largest latency, and the side-band keeps
// its in-flight backing array.
// AllocsPerOp rounds down, so rare amortized growth is tolerated, but
// anything that allocates once per cycle or per packet fails the gate.
// The engine shapes also bound bytes/op per shape; the fabric shapes
// require exactly zero.
package stcc

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
)

// steadyStateWarmup is how many cycles each gate steps before measuring.
// It is longer than the benchmarks' warm-up because the gate must be past
// every transient growth source (pool fill, queue ramp, suspect list),
// not merely at representative occupancy.
const steadyStateWarmup = 8000

// torusSteadyStateWarmup is the 4096-node torus warm-up: one of its
// cycles costs roughly 16x a 256-node cycle, so the full warm-up would
// dominate the test; 2500 cycles is past the big topology's occupancy
// ramp at the gated rate.
const torusSteadyStateWarmup = 2500

// engineShapes are the operating points the gate (and
// BenchmarkEngineStep) cover: an idle network, a low offered load, and
// deep saturation with Disha recoveries and throttling active — the
// saturated point additionally under each feedback-driven controller,
// so the DECbit marking path, the AIMD window machinery and the
// notification wheel are all inside the zero-alloc contract.
//
// maxBytes bounds each shape's amortized bytes/op. At idle and low load
// only the sample series and rare new peaks (largest latency, packets
// in flight, one node's backlog) still grow: 1 and 10 B/op measured.
// Past saturation the open-loop source queues gain about ten entries a
// cycle (offered minus accepted load) at 12 B each, allocated in 8 KB
// slabs of pages, which the model requires: 125-132 B/op measured, and
// up to 175 under the race detector, whose shorter timing window sees
// each slab as a larger share. A revived per-delivery sample slice
// measured 289 B/op at low load and 347-423 B/op saturated, so each
// ceiling fails it.
var engineShapes = []struct {
	name     string
	rate     float64
	scheme   sim.Scheme
	maxBytes int64
}{
	{"idle", 0.0001, sim.Scheme{Kind: sim.SelfTuned}, 64},
	{"low", 0.02, sim.Scheme{Kind: sim.SelfTuned}, 64},
	{"saturated", 0.06, sim.Scheme{Kind: sim.SelfTuned}, 256},
	{"aimd-saturated", 0.06, sim.Scheme{Kind: sim.AIMD}, 256},
	{"notify-saturated", 0.06, sim.Scheme{Kind: sim.Notify}, 256},
}

// TestEngineStepZeroSteadyStateAllocs asserts that a full engine cycle
// (generation, throttling, injection, network step, sampling) makes no
// allocation at steady state and stays under its shape's bytes/op
// ceiling.
func TestEngineStepZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second steady-state measurement")
	}
	for _, tc := range engineShapes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.NewConfig()
			cfg.Rate = tc.rate
			cfg.Scheme = tc.scheme
			cfg.WarmupCycles = 1
			cfg.MeasureCycles = 1 << 40 // the loops below pace the cycles
			e, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steadyStateWarmup; i++ {
				e.Step()
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
			if allocs := r.AllocsPerOp(); allocs != 0 {
				t.Errorf("engine %s: %d allocs/op (%d B/op) at steady state, want 0",
					tc.name, allocs, r.AllocedBytesPerOp())
			}
			if bytes := r.AllocedBytesPerOp(); bytes > tc.maxBytes {
				t.Errorf("engine %s: %d B/op at steady state, want <= %d (series and backlog growth only)",
					tc.name, bytes, tc.maxBytes)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("engine %s: invariants after measurement: %v", tc.name, err)
			}
		})
	}
}

// TestFabricStepZeroSteadyStateAllocs asserts a stricter contract for
// the bare fabric with pool-fed injection, isolating the router data
// path from the engine's statistics and control layers: zero allocs AND
// zero bytes per op. The fabric has no growing statistics, so any
// nonzero bytes/op is a leak in the step path (historically: a
// per-recovery drain-bookkeeping map that escaped to the heap). The
// torus4096 shape gates a 4096-node network, where a per-node leak
// would show sixteen times over.
func TestFabricStepZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second steady-state measurement")
	}
	for _, tc := range []struct {
		name    string
		k, n    int
		rate    float64
		warmup  int
		prefill int
	}{
		{"idle", 16, 2, 0, steadyStateWarmup, 4096},
		{"low", 16, 2, 0.002, steadyStateWarmup, 4096},
		{"saturated", 16, 2, 0.2, steadyStateWarmup, 4096},
		{"torus4096-low", 16, 3, 0.002, torusSteadyStateWarmup, 65536},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.MustNew(tc.k, tc.n)
			fab := router.MustNew(router.Config{
				Topo: topo, VCs: 3, BufDepth: 8, Mode: router.Recovery, DeadlockTimeout: 160,
			})
			rng := rand.New(rand.NewSource(1))
			pool := packet.NewPool()
			// Cover the run's peak in-flight population (the injection
			// sequence is seeded, so the peak is a fixed property of the
			// shape) so Get never allocates mid-measurement; the check
			// after measurement proves the estimate held.
			pool.Prefill(tc.prefill, 8*tc.n*tc.k)
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
			for i := 0; i < tc.warmup; i++ {
				inject()
				fab.Step()
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					inject()
					fab.Step()
				}
			})
			if allocs := r.AllocsPerOp(); allocs != 0 {
				t.Errorf("fabric %s: %d allocs/op (%d B/op) at steady state, want 0",
					tc.name, allocs, r.AllocedBytesPerOp())
			}
			if bytes := r.AllocedBytesPerOp(); bytes != 0 {
				t.Errorf("fabric %s: %d B/op at steady state, want 0 (the fabric has no amortized growth)",
					tc.name, bytes)
			}
			if fresh := pool.Gets() - pool.Reuses(); fresh != 0 {
				t.Errorf("fabric %s: %d packets allocated past the prefill; raise the prefill estimate",
					tc.name, fresh)
			}
			if err := fab.CheckInvariants(); err != nil {
				t.Errorf("fabric %s: invariants after measurement: %v", tc.name, err)
			}
		})
	}
}
