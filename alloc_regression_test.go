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
// require exactly zero. The shapes and their warm-ups are defined once
// in internal/shapes, shared with the step benchmarks and stcc-bench.
// Construction is gated too: router.New's bytes per input lane, and
// what a grid point costs a Runner worker that reuses engine storage.
package stcc

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/shapes"
	"repro/internal/sim"
)

// fabricMaxBytesPerLane bounds what router.New allocates per input lane
// (a router has 2n*VCs+1). Each lane carries a 40-byte vcBuffer, eight
// 8-byte flit slots, a 32-byte output VC and a share of the node and
// mask arrays: 153.8 B measured on the 16-ary 2-cube and 149.1 on the
// 16-ary 3-cube. A flit that carries a packet pointer again adds 64 B
// per lane, and a pointer back to the fabric in every buffer and latch
// 16 B, so either fails the gate (router's TestLaneLayout catches a
// pointer in a flit or buffer of any size). 16-byte flits measured
// 242.5 and 237.1, and the layout before them 430.7 and 421.2.
const fabricMaxBytesPerLane = 168

// TestFabricNewBytesPerLane gates router.New's allocation for the
// network of every fabric shape.
func TestFabricNewBytesPerLane(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, s := range shapes.Fabrics {
		if seen[[2]int{s.K, s.N}] {
			continue
		}
		seen[[2]int{s.K, s.N}] = true
		cfg := s.Config()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f := router.MustNew(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(f)
		lanes := cfg.Topo.Nodes() * (cfg.Topo.PhysPorts()*cfg.VCs + 1)
		perLane := float64(after.TotalAlloc-before.TotalAlloc) / float64(lanes)
		t.Logf("%d-ary %d-cube: %.1f B per input lane", s.K, s.N, perLane)
		if perLane > fabricMaxBytesPerLane {
			t.Errorf("%d-ary %d-cube: router.New allocates %.1f B per input lane, want <= %d",
				s.K, s.N, perLane, fabricMaxBytesPerLane)
		}
	}
}

// reusedPointMaxShare bounds what a grid point costs on a Runner worker
// that has run a point before, as a share of one fresh sim.New of the
// point. A worker builds each engine in the last one's arenas, queue
// slabs and packets, so what remains is the run's own growth, the
// controllers and the result series: 0.041 measured on fig3's grid at
// Scale{100,400}, against 1.18 when every point builds from nothing.
const reusedPointMaxShare = 0.25

// TestRunnerReusesEngineStorage runs fig3's grid on one Runner worker
// and gates its average allocation per point against one sim.New of the
// grid's first point, measured here. The grid is 48 points of one
// network shape, so every point after the first can reuse.
func TestRunnerReusesEngineStorage(t *testing.T) {
	entry, ok := experiments.Lookup("fig3")
	if !ok {
		t.Fatal("registry has no fig3")
	}
	spec := entry.Spec(experiments.Scale{Warmup: 100, Measure: 400})
	points := spec.Points()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := sim.New(points[0].Config)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(e)
	fresh := float64(after.TotalAlloc - before.TotalAlloc)

	runtime.ReadMemStats(&before)
	if _, err := (experiments.Runner{Workers: 1}).RunSpec(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(points))
	share := perPoint / fresh
	t.Logf("%d points: %.0f B per point, one sim.New %.0f B: %.3fx", len(points), perPoint, fresh, share)
	if share > reusedPointMaxShare {
		t.Errorf("a grid point allocates %.3fx one sim.New, want <= %.2fx: Runner workers are not reusing engine storage",
			share, reusedPointMaxShare)
	}
}

// engineMaxBytes bounds each engine shape's amortized bytes/op. At idle
// and low load only the sample series and rare new peaks (largest
// latency, packets in flight, one node's backlog) still grow: 1 and 10
// B/op measured. Past saturation the open-loop source queues gain about
// ten entries a cycle (offered minus accepted load) at about 2.7 B each
// (two uvarints), allocated in 8 KB slabs of pages, which the model
// requires: 26-29 B/op measured, and 14-35 under the race detector,
// whose shorter timing window sees each slab as a larger share. Fixed
// 12-byte entries measured 115-124 B/op, and up to 175 under the race
// detector, so each saturated ceiling fails them; a revived
// per-delivery sample slice measured 289 B/op at low load and 347-423
// B/op saturated.
var engineMaxBytes = map[string]int64{
	"idle":             64,
	"low":              64,
	"saturated":        80,
	"aimd-saturated":   80,
	"notify-saturated": 80,
}

// TestEngineStepZeroSteadyStateAllocs asserts that a full engine cycle
// (generation, throttling, injection, network step, sampling) makes no
// allocation at steady state and stays under its shape's bytes/op
// ceiling, for every engine shape: an idle network, a low offered load,
// and deep saturation with Disha recoveries and throttling active under
// the self-tuned scheme and each feedback-driven controller.
func TestEngineStepZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second steady-state measurement")
	}
	for _, s := range shapes.Engines {
		t.Run(s.Name, func(t *testing.T) {
			maxBytes, ok := engineMaxBytes[s.Name]
			if !ok {
				t.Fatalf("engine %s has no bytes/op ceiling", s.Name)
			}
			e, err := s.Start()
			if err != nil {
				t.Fatal(err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
			if allocs := r.AllocsPerOp(); allocs != 0 {
				t.Errorf("engine %s: %d allocs/op (%d B/op) at steady state, want 0",
					s.Name, allocs, r.AllocedBytesPerOp())
			}
			if bytes := r.AllocedBytesPerOp(); bytes > maxBytes {
				t.Errorf("engine %s: %d B/op at steady state, want <= %d (series and backlog growth only)",
					s.Name, bytes, maxBytes)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("engine %s: invariants after measurement: %v", s.Name, err)
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
// 4096-node torus is gated at low load only: a per-node leak shows
// there sixteen times over, and a saturated torus cycle costs about 15x
// a low-load one.
func TestFabricStepZeroSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second steady-state measurement")
	}
	for _, s := range shapes.Fabrics {
		if s.Name == "torus4096-idle" || s.Name == "torus4096-saturated" {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			run := s.Start()
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run.Step()
				}
			})
			if allocs := r.AllocsPerOp(); allocs != 0 {
				t.Errorf("fabric %s: %d allocs/op (%d B/op) at steady state, want 0",
					s.Name, allocs, r.AllocedBytesPerOp())
			}
			if bytes := r.AllocedBytesPerOp(); bytes != 0 {
				t.Errorf("fabric %s: %d B/op at steady state, want 0 (the fabric has no amortized growth)",
					s.Name, bytes)
			}
			// The prefill must cover the run's peak in-flight population
			// so Get never allocates mid-measurement.
			if fresh := run.Pool.Gets() - run.Pool.Reuses(); fresh != 0 {
				t.Errorf("fabric %s: %d packets allocated past the prefill; raise the prefill estimate",
					s.Name, fresh)
			}
			if err := run.Fab.CheckInvariants(); err != nil {
				t.Errorf("fabric %s: invariants after measurement: %v", s.Name, err)
			}
		})
	}
}
