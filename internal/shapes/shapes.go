// Package shapes defines the hot-path operating points that the
// steady-state allocation gate (alloc_regression_test.go), the step
// benchmarks (bench_test.go) and cmd/stcc-bench all measure: the bare
// router fabric and the full engine, each built and stepped past its
// warm-up so that the caller can time or gate single cycles.
package shapes

import (
	"math/rand"

	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Warmup is how many cycles a 256-node shape steps before it is
// measured: past every transient growth source (pool fill, queue ramp,
// suspect list), not merely at representative occupancy.
const Warmup = 8000

// TorusWarmup is the 4096-node torus warm-up. The torus has 16x the
// nodes of the 256-node network, so the full warm-up would dominate;
// 2500 cycles is past the big topology's occupancy ramp.
const TorusWarmup = 2500

// Fabric is one operating point of the bare router fabric: a k-ary
// n-cube with the paper's router (3 VCs, 8-flit buffers, deadlock
// recovery after 160 cycles), fed 16-flit packets to uniform random
// destinations at Rate per node per cycle from a packet pool. The
// injection sequence is seeded, so the peak in-flight population is a
// fixed property of the shape; Prefill stocks the pool past it.
type Fabric struct {
	Name    string
	K, N    int
	Rate    float64
	Warmup  int
	Prefill int
}

// Fabrics are the fabric shapes: the paper's 16-ary 2-cube idle, at low
// load and saturated, and a 4096-node 16-ary 3-cube at the same rates.
var Fabrics = []Fabric{
	{"idle", 16, 2, 0, Warmup, 4096},
	{"low", 16, 2, 0.002, Warmup, 4096},
	{"saturated", 16, 2, 0.2, Warmup, 4096},
	{"torus4096-idle", 16, 3, 0, TorusWarmup, 65536},
	{"torus4096-low", 16, 3, 0.002, TorusWarmup, 65536},
	{"torus4096-saturated", 16, 3, 0.2, TorusWarmup, 65536},
}

// FabricRun is a started fabric shape.
type FabricRun struct {
	Fab  *router.Fabric
	Pool *packet.Pool

	nodes int
	rate  float64
	rng   *rand.Rand
	id    packet.ID
}

// Start builds the shape and steps it through its warm-up.
func (s Fabric) Start() *FabricRun {
	topo := topology.MustNew(s.K, s.N)
	r := &FabricRun{
		Fab: router.MustNew(router.Config{
			Topo: topo, VCs: 3, BufDepth: 8, Mode: router.Recovery, DeadlockTimeout: 160,
		}),
		Pool:  packet.NewPool(),
		nodes: topo.Nodes(),
		rate:  s.Rate,
		rng:   rand.New(rand.NewSource(1)),
	}
	r.Pool.Prefill(s.Prefill, 8*s.N*s.K) // trail capacity covers worst-case hops
	r.Fab.OnDelivered = r.Pool.Put
	for i := 0; i < s.Warmup; i++ {
		r.Step()
	}
	return r
}

// Step injects one cycle's packets and steps the fabric one cycle.
func (r *FabricRun) Step() {
	if r.rate > 0 {
		for n := 0; n < r.nodes; n++ {
			src := topology.NodeID(n)
			if r.rng.Float64() < r.rate && r.Fab.CanStartInjection(src) {
				dst := topology.NodeID(r.rng.Intn(r.nodes))
				if dst == src {
					continue
				}
				r.Fab.StartInjection(r.Pool.Get(r.id, src, dst, 16, r.Fab.Now()))
				r.id++
			}
		}
	}
	r.Fab.Step()
}

// Engine is one operating point of the full engine (generation,
// throttling, injection, fabric step, sampling) on the default
// configuration, the paper's 256-node network.
type Engine struct {
	Name   string
	Rate   float64
	Scheme sim.Scheme
}

// Engines are the engine shapes: the self-tuned scheme idle, at low
// load and saturated, and the saturated point under each
// feedback-driven controller, so the DECbit marking fold, the AIMD
// window machinery and the notification wheel are measured too.
var Engines = []Engine{
	{"idle", 0.0001, sim.Scheme{Kind: sim.SelfTuned}},
	{"low", 0.02, sim.Scheme{Kind: sim.SelfTuned}},
	{"saturated", 0.06, sim.Scheme{Kind: sim.SelfTuned}},
	{"aimd-saturated", 0.06, sim.Scheme{Kind: sim.AIMD}},
	{"notify-saturated", 0.06, sim.Scheme{Kind: sim.Notify}},
}

// Start builds the shape's engine and steps it through Warmup cycles.
func (s Engine) Start() (*sim.Engine, error) {
	cfg := sim.NewConfig()
	cfg.Rate = s.Rate
	cfg.Scheme = s.Scheme
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40 // the caller paces the cycles with Step
	e, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < Warmup; i++ {
		e.Step()
	}
	return e, nil
}
