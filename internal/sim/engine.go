package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Engine runs one simulation.
type Engine struct {
	cfg   Config
	topo  *topology.Torus
	fab   *router.Fabric
	side  *sideband.Network
	thr   congestion.Controller
	glob  *core.GlobalThrottler // nil for local schemes
	sched *traffic.Schedule
	rng   *rand.Rand

	queues   sourceQueues
	qActive  []uint64     // bitset of nodes with a non-empty source queue
	pool     *packet.Pool // free list; delivered packets are recycled here
	created  int64
	injStart int // rotating start node of the injection scan

	// Measurement.
	warmup          int64
	total           int64
	netLatency      stats.LatencyStats
	totLatency      stats.Accumulator // only its mean is reported
	hops            stats.Accumulator
	delivered       int64 // all packets
	deliveredMeas   int64 // packets created after warm-up
	injected        int64 // also the next packet's ID
	throttleDenials int64
	throttledCycles int64

	deliveredMark   int64 // for the sample series
	tputSeries      *stats.Series
	fullSeries      *stats.Series
	fullAccum       float64
	fullAccumCycles int64
}

// New builds an engine. The configuration must validate.
func New(cfg Config) (*Engine, error) { return build(cfg, nil) }

// build is New in the storage of donor, an engine its caller is done
// with (nil builds fresh): the router's arenas, the source-queue slabs,
// the packet free list, which also takes back the packets still in the
// donor's network, and the RNG, reseeded. Everything else — controllers,
// side-band, statistics, and the series a Result holds — is built
// fresh, so the engine runs exactly as a fresh one would. The donor must
// not be used again.
func build(cfg Config, donor *Engine) (*Engine, error) {
	var p plan
	if err := cfg.plan(&p); err != nil {
		return nil, err
	}
	var old Engine // the storage to build in: the donor's, or none
	if donor != nil {
		old = *donor
		// The packets still in the donor's network join its free list:
		// nothing references them once its fabric is rebuilt.
		old.fab.EachPacket(func(p *packet.Packet) {
			if !p.Recycled() {
				old.pool.Put(p)
			}
		})
		old.rng.Seed(cfg.Seed) // restarts the stream a fresh source of this seed draws
	} else {
		old.pool, old.rng = packet.NewPool(), rand.New(rand.NewSource(cfg.Seed))
	}
	fab, err := router.NewReusing(p.router, old.fab)
	if err != nil {
		return nil, err
	}
	side := sideband.New(p.side, fab)
	sched := p.sched
	if sched == nil {
		sched = traffic.Steady(p.pattern, traffic.Bernoulli{P: cfg.Rate})
	}
	nodes := p.topo.Nodes()
	e := &Engine{
		cfg:        cfg,
		topo:       p.topo,
		fab:        fab,
		side:       side,
		sched:      sched,
		rng:        old.rng,
		queues:     newSourceQueues(nodes, old.queues),
		qActive:    reuse(old.qActive, (nodes+63)>>6),
		pool:       old.pool,
		warmup:     cfg.WarmupCycles,
		total:      cfg.TotalCycles(),
		tputSeries: stats.NewSeries(0, p.interval),
		fullSeries: stats.NewSeries(0, p.interval),
	}
	// Every scheme — the registered ones and custom ones — assembles
	// itself from the Env its factory receives. A *core.GlobalThrottler
	// is the global scheme family, whose threshold trace Result reads.
	if e.thr, err = p.factory(congestion.Env{
		Kind:   string(cfg.Scheme.Kind),
		Topo:   p.topo,
		Local:  fab,
		Global: fab,
		Side:   side,
		Params: cfg.Scheme.params(),
	}); err != nil {
		return nil, err
	}
	e.glob, _ = e.thr.(*core.GlobalThrottler)
	fab.OnDelivered = e.onDelivered
	return e, nil
}

//stcc:hotpath
func (e *Engine) onDelivered(p *packet.Packet) {
	e.delivered++
	if p.CreatedAt >= e.warmup {
		e.deliveredMeas++
		e.netLatency.Add(float64(p.NetworkLatency()))
		e.totLatency.Add(float64(p.TotalLatency()))
		e.hops.Add(float64(p.Hops))
	}
	// End-to-end feedback to the controller, echoing the DECbit mark.
	e.thr.Observe(congestion.FeedbackEvent{
		Kind:   congestion.PacketDelivered,
		Cycle:  p.DeliveredAt,
		Source: p.Src,
		Router: p.Dst,
		Marked: p.Marked,
	})
	// The fabric releases every reference to a packet before it reports
	// delivery (trace sinks receive packet IDs, not pointers), so the
	// struct can go straight back to the free list for the next
	// injection.
	e.pool.Put(p)
}

// Run executes the full simulation and returns its results. It can only
// be called once per engine.
func (e *Engine) Run() (Result, error) {
	return e.RunContext(context.Background(), 0, nil)
}

// RunWithProgress is Run with a progress callback invoked after every
// `every` simulated cycles (fn may inspect the fabric via Fabric).
// A zero interval or nil fn disables the callback.
func (e *Engine) RunWithProgress(every int64, fn func(now int64)) (Result, error) {
	return e.RunContext(context.Background(), every, fn)
}

// cancelCheckMask gates how often RunContext polls for cancellation:
// every 1024 simulated cycles, so the check never shows up in the hot
// path but a canceled run still stops within microseconds of wall time.
const cancelCheckMask = 1024 - 1

// RunContext is RunWithProgress under a context: when ctx is canceled
// the run stops between cycles and returns ctx's error instead of a
// Result. Cancellation never perturbs completed runs — a run that
// finishes before the cancellation is observed returns its normal,
// deterministic Result.
func (e *Engine) RunContext(ctx context.Context, every int64, fn func(now int64)) (Result, error) {
	if every < 0 {
		return Result{}, fmt.Errorf("sim: negative progress interval %d", every)
	}
	if e.fab.Now() != 0 {
		return Result{}, fmt.Errorf("sim: engine already run")
	}
	done := ctx.Done() // nil for context.Background(): no per-cycle cost
	for now := int64(0); now < e.total; now++ {
		if done != nil && now&cancelCheckMask == 0 {
			select {
			case <-done:
				return Result{}, ctx.Err()
			default:
			}
		}
		e.step(now)
		if fn != nil && every > 0 && (now+1)%every == 0 {
			fn(now + 1)
		}
	}
	return e.result(), nil
}

// Step advances the simulation by exactly one cycle. It is the
// incremental alternative to Run for benchmarks and interactive
// drivers: the caller controls the cycle loop and may inspect the
// fabric between cycles. Statistics accumulate exactly as under Run;
// mixing Step with a later Run is rejected by Run's already-run guard.
//
//stcc:hotpath
func (e *Engine) Step() { e.step(e.fab.Now()) }

// Close is a no-op: an engine holds no goroutines or other resources
// that need releasing. It remains so that callers may close every
// engine they build.
func (e *Engine) Close() {}

// CheckInvariants verifies the engine's structural invariants: the
// fabric's (buffer occupancy, counters, flit conservation, no
// use-after-recycle), the packet pool's recycling discipline (no
// double recycle), and the source queues' (every entry decodes, in
// creation order, every page is in one chain, and a node's active bit
// is set iff its queue is non-empty). O(network size plus backlog);
// for tests and debugging.
func (e *Engine) CheckInvariants() error {
	if err := e.fab.CheckInvariants(); err != nil {
		return err
	}
	if err := e.pool.CheckInvariants(); err != nil {
		return err
	}
	if err := e.queues.check(e.fab.Now(), e.topo.Nodes()); err != nil {
		return err
	}
	for n := range e.queues.q {
		if active := e.qActive[n>>6]&(1<<uint(n&63)) != 0; active != (e.queues.len(n) > 0) {
			return fmt.Errorf("source queue %d: %d entries, active bit %t", n, e.queues.len(n), active)
		}
	}
	return nil
}

//stcc:hotpath
func (e *Engine) step(now int64) {
	// 1. Global information gather and controller tick, before any
	// injection decision, so a cycle's decisions all see the same
	// controller state.
	e.side.Tick(now)
	e.thr.Tick(now)

	// 2. Packet generation into source queues. This loop stays O(nodes):
	// the traffic schedule consumes RNG draws per node per cycle, and
	// that consumption order is pinned by the determinism goldens.
	nodes := e.topo.Nodes()
	for n := 0; n < nodes; n++ {
		if dst, ok := e.sched.Generate(now, topology.NodeID(n), e.rng); ok {
			e.created++
			e.queues.push(n, now, dst)
			e.qActive[n>>6] |= 1 << uint(n&63)
		}
	}

	// 3. Injection, gated by the throttler. Only nodes with a non-empty
	// source queue are visited (the qActive bitset), in the same order
	// the full scan used: starting at a node that rotates each cycle
	// (mirroring the router's RotatePorts policy — a fixed start would
	// hand low-numbered nodes every contended injection slot when the
	// throttler rations per-cycle injections) and wrapping once.
	throttledThisCycle := false
	start := e.injStart
	e.injStart++
	if e.injStart == nodes {
		e.injStart = 0
	}
	e.injectRange(now, start, nodes, &throttledThisCycle)
	e.injectRange(now, 0, start, &throttledThisCycle)
	if throttledThisCycle {
		e.throttledCycles++
	}

	// 4. Network cycle.
	e.fab.Step()

	// 5. Sampling.
	e.fullAccum += float64(e.fab.FullVCBuffers())
	e.fullAccumCycles++
	if (now+1)%e.tputSeries.Interval == 0 {
		flits := e.fab.DeliveredFlits() - e.deliveredMark
		e.deliveredMark = e.fab.DeliveredFlits()
		e.tputSeries.Append(stats.Rate(flits, nodes, e.tputSeries.Interval))
		e.fullSeries.Append(e.fullAccum / float64(e.fullAccumCycles))
		e.fullAccum, e.fullAccumCycles = 0, 0
	}
}

// injectRange attempts injection at every node in [lo, hi) whose source
// queue is non-empty, in ascending node order — exactly the nodes the
// old full scan would not have skipped, visited in the same order, so
// throttler consultation and denial accounting are unchanged.
//
//stcc:hotpath
func (e *Engine) injectRange(now int64, lo, hi int, throttled *bool) {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := e.qActive[wi]
		base := wi << 6
		if base < lo {
			w &= ^uint64(0) << uint(lo-base)
		}
		if hi-base < 64 {
			w &= ^uint64(0) >> uint(64-(hi-base))
		}
		for ; w != 0; w &= w - 1 {
			e.injectNode(now, base+bits.TrailingZeros64(w), throttled)
		}
	}
}

// injectNode offers node n's oldest pending packet to the fabric,
// consulting the throttler. The qActive bit clears when the pop empties
// the queue, keeping the bitset exact: bit set iff queue non-empty.
//
//stcc:hotpath
func (e *Engine) injectNode(now int64, n int, throttled *bool) {
	if !e.fab.CanStartInjection(topology.NodeID(n)) {
		return
	}
	created, dst := e.queues.front(n)
	if !e.thr.AllowInjection(now, topology.NodeID(n), dst) {
		e.throttleDenials++
		*throttled = true
		return
	}
	e.queues.pop(n)
	if e.queues.len(n) == 0 {
		e.qActive[n>>6] &^= 1 << uint(n&63)
	}
	p := e.pool.Get(packet.ID(e.injected), topology.NodeID(n), dst, e.cfg.PacketLength, created)
	e.injected++
	p.Progress(now)
	e.fab.StartInjection(p)
	e.thr.Observe(congestion.FeedbackEvent{
		Kind:   congestion.PacketInjected,
		Cycle:  now,
		Source: topology.NodeID(n),
	})
}

// Fabric exposes the underlying fabric (tests and experiment drivers).
func (e *Engine) Fabric() *router.Fabric { return e.fab }
