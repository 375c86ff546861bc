package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Result is one simulation run's measurements. Rates are normalized to
// the paper's units (per node per cycle); latency is in cycles, measured
// only over packets created after warm-up.
type Result struct {
	Scheme  SchemeKind
	Mode    string
	Pattern string

	// OfferedRate is the realized generation rate in packets/node/cycle
	// over the whole run.
	OfferedRate float64
	// AcceptedFlits is the delivered bandwidth in flits/node/cycle over
	// the measurement window — the paper's "normalized accepted
	// traffic".
	AcceptedFlits float64
	// AcceptedPackets is the same in packets/node/cycle.
	AcceptedPackets float64

	// Latency statistics (cycles).
	AvgNetworkLatency float64
	P95NetworkLatency float64
	MaxNetworkLatency float64
	AvgTotalLatency   float64
	AvgHops           float64

	// Counts over the whole run.
	PacketsCreated   int64
	PacketsInjected  int64
	PacketsDelivered int64
	Recoveries       int64
	ThrottleDenials  int64
	ThrottledCycles  int64
	AvgFullBuffers   float64
	FinalThreshold   float64

	// Time series over the whole run (including warm-up), sampled every
	// SampleInterval cycles.
	Throughput  *stats.Series // flits/node/cycle
	FullBuffers *stats.Series // mean full buffers per interval

	// ThresholdTrace is the tuner's per-period trace (global schemes
	// with KeepTrace only).
	ThresholdTrace []core.TracePoint
}

func (e *Engine) result() Result {
	nodes := e.topo.Nodes()
	from, to := e.warmup, e.total
	r := Result{
		Scheme:  e.cfg.Scheme.Kind,
		Mode:    e.cfg.Mode.String(),
		Pattern: string(e.cfg.Pattern),

		OfferedRate: stats.Rate(e.created, nodes, e.total),

		AvgNetworkLatency: e.netLatency.Mean(),
		P95NetworkLatency: e.netLatency.Percentile(95),
		MaxNetworkLatency: e.netLatency.Max(),
		AvgTotalLatency:   e.totLatency.Mean(),
		AvgHops:           e.hops.Mean(),

		PacketsCreated:   e.created,
		PacketsInjected:  e.injected,
		PacketsDelivered: e.delivered,
		Recoveries:       e.fab.Recoveries(),
		ThrottleDenials:  e.throttleDenials,
		ThrottledCycles:  e.throttledCycles,

		Throughput:  e.tputSeries,
		FullBuffers: e.fullSeries,
	}
	if e.cfg.Schedule != nil || e.cfg.ScheduleSpec != nil {
		r.Pattern = "schedule"
	}
	// Accepted traffic over the measurement window, from the series.
	r.AcceptedFlits = e.tputSeries.Window(from, to)
	r.AcceptedPackets = r.AcceptedFlits / float64(e.cfg.PacketLength)
	r.AvgFullBuffers = e.fullSeries.Window(from, to)
	if e.glob != nil {
		r.FinalThreshold = e.glob.Threshold()
		r.ThresholdTrace = e.glob.Trace()
	}
	return r
}

// Run is the package-level convenience: build an engine and run it.
func Run(cfg Config) (Result, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run under a context: a canceled ctx stops the
// simulation between cycles and returns ctx's error.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	var s Slot
	return s.Run(ctx, cfg)
}

// Slot runs configurations one after another, building each engine in
// the storage the last one left behind: the router's arenas, resliced
// and zeroed where they are large enough, the source-queue slabs, the
// packet free list and the RNG. Everything a Result holds is built
// fresh, so a run on a Slot returns what a fresh RunContext of its
// config returns, and earlier Results stay valid. The zero Slot is
// empty; a failed build leaves it empty. A Slot is not safe for
// concurrent use: each goroutine needs its own.
type Slot struct {
	last *Engine // the previous run's engine; nil when empty
}

// Run builds an engine for cfg in the slot's storage and runs it under
// ctx, as RunContext does.
func (s *Slot) Run(ctx context.Context, cfg Config) (Result, error) {
	e, err := build(cfg, s.last)
	s.last = nil
	if err != nil {
		return Result{}, err
	}
	res, err := e.RunContext(ctx, 0, nil)
	s.last = e
	return res, err
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s %s: offered %.5f pkts/node/cyc, accepted %.4f flits/node/cyc, latency %.0f cyc (recoveries %d)",
		r.Scheme, r.Mode, r.Pattern, r.OfferedRate, r.AcceptedFlits, r.AvgNetworkLatency, r.Recoveries)
}
