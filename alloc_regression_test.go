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
package stcc

import (
	"testing"

	"repro/internal/shapes"
)

// engineMaxBytes bounds each engine shape's amortized bytes/op. At idle
// and low load only the sample series and rare new peaks (largest
// latency, packets in flight, one node's backlog) still grow: 1 and 10
// B/op measured. Past saturation the open-loop source queues gain about
// ten entries a cycle (offered minus accepted load) at 12 B each,
// allocated in 8 KB slabs of pages, which the model requires: 125-132
// B/op measured, and up to 175 under the race detector, whose shorter
// timing window sees each slab as a larger share. A revived
// per-delivery sample slice measured 289 B/op at low load and 347-423
// B/op saturated, so each ceiling fails it.
var engineMaxBytes = map[string]int64{
	"idle":             64,
	"low":              64,
	"saturated":        256,
	"aimd-saturated":   256,
	"notify-saturated": 256,
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
