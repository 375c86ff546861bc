package main

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/congestion"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Span names of the traced engine, indexed by the sp* constants. The
// seven phases tile one simulated cycle in sim.Engine's order; sim.cycle
// runs from one cycle's first timestamp to the next one's, so whatever
// the phases leave out (loop glue and the recording itself) shows up as
// trace.unattributed_frac.
const (
	spCycle = iota
	spSideband
	spCongestion
	spGenerate
	spInject
	spStep
	spDeliver
	spSample
	numEngineSpans
)

var engineSpanNames = [numEngineSpans]string{
	"sim.cycle", "sideband.tick", "congestion.tick", "traffic.generate",
	"sim.inject", "router.step", "sim.deliver", "sim.sample",
}

// rawCycles is how many mid-run cycles keep their raw spans.
const rawCycles = 1000

// errNotificationController rejects controllers that need the side-band
// notification path: no workload runs one, so the traced engine does
// not rebuild that path.
var errNotificationController = errors.New("traced engine: notification controllers are not supported")

// pending is a generated packet waiting in its source queue.
type pending struct {
	created int64
	dst     topology.NodeID
}

// fifo is a per-node source queue: a ring that doubles when full, with
// the same amortized cost as sim.Engine's queues.
type fifo struct {
	buf     []pending
	head, n int
}

func (q *fifo) push(p pending) {
	if q.n == len(q.buf) {
		grown := make([]pending, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			j := q.head + i
			if j >= len(q.buf) {
				j -= len(q.buf)
			}
			grown[i] = q.buf[j]
		}
		q.buf, q.head = grown, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *fifo) pop() pending {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

// engineCounts are the counters the traced engine must reproduce
// exactly from sim.Engine for the same configuration.
type engineCounts struct {
	Created, Injected, Delivered int64
	Denials, ThrottledCycles     int64
	Recoveries                   int64
	MeanNetLatency               float64
}

func countsOf(r sim.Result) engineCounts {
	return engineCounts{
		Created: r.PacketsCreated, Injected: r.PacketsInjected, Delivered: r.PacketsDelivered,
		Denials: r.ThrottleDenials, ThrottledCycles: r.ThrottledCycles,
		Recoveries: r.Recoveries, MeanNetLatency: r.AvgNetworkLatency,
	}
}

// tracedEngine rebuilds sim.Engine's cycle loop from the layers' public
// calls — router.New, sideband.New, the congestion registry,
// traffic.Steady, packet.Pool and stats — and takes a timestamp at
// every phase boundary. It runs steady Pattern+Rate workloads only.
type tracedEngine struct {
	cfg      sim.Config
	nodes    int
	total    int64
	fab      *router.Fabric
	side     *sideband.Network
	thr      congestion.Controller
	sched    *traffic.Schedule
	rng      *rand.Rand
	pool     *packet.Pool
	queues   []fifo
	qActive  []uint64
	nextID   packet.ID
	injStart int

	created, injected, delivered int64
	denials, throttledCycles     int64
	netLatency, totLatency       stats.LatencyStats
	hops                         stats.Accumulator

	tput, full      *stats.Series
	deliveredMark   int64
	fullAccum       float64
	fullAccumCycles int64
	fullTotal       float64 // FullVCBuffers summed over every cycle

	rec       *recorder
	cycleNs   []float64 // every cycle's span, for exact percentiles
	deliverNs int64     // delivery-callback time inside this cycle's Fabric.Step
	stepSpan  int32     // raw router.step span of this cycle, -1 when not kept
}

func newTracedEngine(cfg sim.Config) (*tracedEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Schedule != nil || cfg.ScheduleSpec != nil || cfg.Scheme.Kind == sim.Custom {
		return nil, fmt.Errorf("traced engine: only steady pattern+rate workloads with a registered scheme are supported")
	}
	topo, err := cfg.Topology()
	if err != nil {
		return nil, err
	}
	mark := cfg.Scheme.MarkThreshold
	if mark == 0 && (cfg.Scheme.Kind == sim.AIMD || cfg.Scheme.Kind == sim.Notify) {
		mark = sim.DefaultMarkThreshold
	}
	fab, err := router.New(router.Config{
		Topo: topo, VCs: cfg.VCs, BufDepth: cfg.BufDepth,
		Mode: cfg.Mode, DeadlockTimeout: cfg.DeadlockTimeout,
		TokenWaitTimeout: cfg.TokenWaitTimeout,
		DeliveryChannels: cfg.DeliveryChannels, Selection: cfg.Selection,
		Switching: cfg.Switching, Workers: cfg.ShardWorkers,
		Dispatch: cfg.ShardDispatch, CongestMark: mark,
	})
	if err != nil {
		return nil, err
	}
	side := sideband.New(sideband.Config{
		K: cfg.K, N: cfg.N, HopDelay: cfg.SidebandHopDelay, Bits: cfg.SidebandBits,
		Mechanism: cfg.SidebandMechanism, TotalBuffers: topo.TotalVCBuffers(cfg.VCs),
		PiggybackP: cfg.PiggybackP, Seed: cfg.Seed,
	}, fab)
	pat, err := traffic.NewPattern(cfg.Pattern, topo.Nodes())
	if err != nil {
		return nil, err
	}
	factory, ok := congestion.Lookup(string(cfg.Scheme.Kind))
	if !ok {
		return nil, fmt.Errorf("traced engine: no registered controller %q", cfg.Scheme.Kind)
	}
	params := congestion.Params{
		BusyLimit: cfg.Scheme.BusyLimit, StaticThreshold: cfg.Scheme.StaticThreshold,
		Estimator: string(cfg.Scheme.Estimator), TuningPeriod: cfg.Scheme.TuningPeriod,
		KeepTrace: cfg.Scheme.KeepTrace, WindowMin: cfg.Scheme.WindowMin,
		WindowMax: cfg.Scheme.WindowMax, Staleness: cfg.Scheme.Staleness,
	}
	if cfg.Scheme.Tuner != nil {
		params.Tuner = cfg.Scheme.Tuner
	}
	thr, err := factory(congestion.Env{
		Kind: string(cfg.Scheme.Kind), Topo: topo, Local: fab, Global: fab, Side: side, Params: params,
	})
	if err != nil {
		return nil, err
	}
	if _, ok := thr.(congestion.NotificationUser); ok {
		return nil, fmt.Errorf("%w (scheme %q)", errNotificationController, cfg.Scheme.Kind)
	}
	interval := cfg.SampleInterval
	if interval == 0 {
		interval = cfg.GatherDuration()
	}
	t := &tracedEngine{
		cfg: cfg, nodes: topo.Nodes(), total: cfg.TotalCycles(),
		fab: fab, side: side, thr: thr,
		sched:   traffic.Steady(pat, traffic.Bernoulli{P: cfg.Rate}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pool:    packet.NewPool(),
		queues:  make([]fifo, topo.Nodes()),
		qActive: make([]uint64, (topo.Nodes()+63)>>6),
		tput:    stats.NewSeries(0, interval),
		full:    stats.NewSeries(0, interval),
		rec:     newRecorder(engineSpanNames[:]...),
	}
	fab.OnDelivered = t.onDelivered
	return t, nil
}

// run simulates every configured cycle, timing each phase. Raw spans
// are kept for the rawCycles cycles around the middle of the run.
func (t *tracedEngine) run() {
	defer t.fab.Close()
	r := t.rec
	keepFrom := max(0, t.total/2-rawCycles/2)
	keepTo := min(t.total, keepFrom+rawCycles)
	// A kept cycle stores its own span, seven phases and one span per
	// delivery; sizing for 24 deliveries a cycle keeps slice growth out
	// of the kept cycles on every workload.
	r.raw = make([]span, 0, 32*(keepTo-keepFrom))
	t.cycleNs = make([]float64, 0, t.total)
	prevStart, prevSpan := int64(-1), int32(-1)
	for now := int64(0); now < t.total; now++ {
		start := r.now()
		if prevStart >= 0 {
			t.closeCycle(prevStart, start, prevSpan)
		}
		cyc := int32(-1)
		keep := now >= keepFrom && now < keepTo
		if keep {
			cyc = r.keep(spCycle, -1, start, 0)
		}

		// Recording the previous cycle belongs to no phase: t0 starts the
		// first phase after it, so it counts as unattributed time.
		t0 := r.now()
		t.side.Tick(now)
		t1 := r.now()
		t.thr.Tick(now)
		t2 := r.now()
		t.generate(now)
		t3 := r.now()
		t.inject(now)
		t4 := r.now()
		t.stepSpan = -1
		if keep {
			t.stepSpan = r.keep(spStep, cyc, t4, 0)
		}
		t.deliverNs = 0
		t.fab.Step()
		t5 := r.now()
		t.sample(now)
		t6 := r.now()

		r.observe(spSideband, t0, t1)
		r.observe(spCongestion, t1, t2)
		r.observe(spGenerate, t2, t3)
		r.observe(spInject, t3, t4)
		r.observe(spStep, t4, t5-t.deliverNs)
		r.observe(spDeliver, 0, t.deliverNs)
		r.observe(spSample, t5, t6)
		if keep {
			r.keep(spSideband, cyc, t0, t1)
			r.keep(spCongestion, cyc, t1, t2)
			r.keep(spGenerate, cyc, t2, t3)
			r.keep(spInject, cyc, t3, t4)
			r.setEnd(t.stepSpan, t5)
			r.keep(spSample, cyc, t5, t6)
		}
		prevStart, prevSpan = start, cyc
	}
	t.closeCycle(prevStart, r.now(), prevSpan)
}

func (t *tracedEngine) closeCycle(start, end int64, id int32) {
	t.rec.observe(spCycle, start, end)
	t.cycleNs = append(t.cycleNs, float64(end-start))
	if id >= 0 {
		t.rec.setEnd(id, end)
	}
}

// generate is sim.Engine's packet generation: one Schedule.Generate per
// node per cycle, in node order, so RNG consumption matches.
func (t *tracedEngine) generate(now int64) {
	for n := 0; n < t.nodes; n++ {
		if dst, ok := t.sched.Generate(now, topology.NodeID(n), t.rng); ok {
			t.created++
			t.queues[n].push(pending{created: now, dst: dst})
			t.qActive[n>>6] |= 1 << uint(n&63)
		}
	}
}

// inject offers every non-empty source queue's head to the fabric,
// starting at a node that rotates each cycle, as sim.Engine does.
func (t *tracedEngine) inject(now int64) {
	throttled := false
	start := t.injStart
	t.injStart++
	if t.injStart == t.nodes {
		t.injStart = 0
	}
	t.injectRange(now, start, t.nodes, &throttled)
	t.injectRange(now, 0, start, &throttled)
	if throttled {
		t.throttledCycles++
	}
}

func (t *tracedEngine) injectRange(now int64, lo, hi int, throttled *bool) {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := t.qActive[wi]
		base := wi << 6
		if base < lo {
			w &= ^uint64(0) << uint(lo-base)
		}
		if hi-base < 64 {
			w &= ^uint64(0) >> uint(64-(hi-base))
		}
		for ; w != 0; w &= w - 1 {
			t.injectNode(now, base+bits.TrailingZeros64(w), throttled)
		}
	}
}

func (t *tracedEngine) injectNode(now int64, n int, throttled *bool) {
	q := &t.queues[n]
	if !t.fab.CanStartInjection(topology.NodeID(n)) {
		return
	}
	head := q.buf[q.head]
	if !t.thr.AllowInjection(now, topology.NodeID(n), head.dst) {
		t.denials++
		*throttled = true
		return
	}
	q.pop()
	if q.n == 0 {
		t.qActive[n>>6] &^= 1 << uint(n&63)
	}
	p := t.pool.Get(t.nextID, topology.NodeID(n), head.dst, t.cfg.PacketLength, head.created)
	t.nextID++
	p.Progress(now)
	t.fab.StartInjection(p)
	t.injected++
	t.thr.Observe(congestion.FeedbackEvent{Kind: congestion.PacketInjected, Cycle: now, Source: topology.NodeID(n)})
}

// onDelivered is sim.Engine's delivery callback, timed: the fabric calls
// it from inside Step, so its time is subtracted from router.step.
func (t *tracedEngine) onDelivered(p *packet.Packet) {
	d0 := t.rec.now()
	t.delivered++
	if p.CreatedAt >= t.cfg.WarmupCycles {
		t.netLatency.Add(float64(p.NetworkLatency()))
		t.totLatency.Add(float64(p.TotalLatency()))
		t.hops.Add(float64(p.Hops))
	}
	t.thr.Observe(congestion.FeedbackEvent{
		Kind: congestion.PacketDelivered, Cycle: p.DeliveredAt,
		Source: p.Src, Router: p.Dst, Marked: p.Marked,
	})
	t.pool.Put(p)
	d1 := t.rec.now()
	t.deliverNs += d1 - d0
	if t.stepSpan >= 0 {
		t.rec.keep(spDeliver, t.stepSpan, d0, d1)
	}
}

// sample is sim.Engine's per-cycle statistics sampling.
func (t *tracedEngine) sample(now int64) {
	fb := float64(t.fab.FullVCBuffers())
	t.fullAccum += fb
	t.fullTotal += fb
	t.fullAccumCycles++
	if (now+1)%t.tput.Interval == 0 {
		flits := t.fab.DeliveredFlits() - t.deliveredMark
		t.deliveredMark = t.fab.DeliveredFlits()
		t.tput.Append(stats.Rate(flits, t.nodes, t.tput.Interval))
		t.full.Append(t.fullAccum / float64(t.fullAccumCycles))
		t.fullAccum, t.fullAccumCycles = 0, 0
	}
}

func (t *tracedEngine) counts() engineCounts {
	return engineCounts{
		Created: t.created, Injected: t.injected, Delivered: t.delivered,
		Denials: t.denials, ThrottledCycles: t.throttledCycles,
		Recoveries: t.fab.Recoveries(), MeanNetLatency: t.netLatency.Mean(),
	}
}
