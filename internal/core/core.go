package core

import (
	"fmt"

	"repro/internal/sideband"
	"repro/internal/topology"
)

// TracePoint records the controller state at one tuning-period boundary,
// used to regenerate the paper's Figure 4 (threshold and throughput vs
// time).
type TracePoint struct {
	Cycle      int64
	Threshold  float64
	Throughput float64 // flits delivered network-wide in the period
	Decision   Decision
}

// GlobalConfig parameterizes the global throttler.
type GlobalConfig struct {
	// TuningPeriod is the cycles between tuning decisions; it must be a
	// positive multiple of the side-band gather duration (paper: 96 =
	// 3 gathers of 32 cycles).
	TuningPeriod int64
	// GatherDuration is the side-band's g, used for validation.
	GatherDuration int64
	// KeepTrace retains a TracePoint per tuning period.
	KeepTrace bool
}

// Validate checks the configuration.
func (c GlobalConfig) Validate() error {
	if c.GatherDuration <= 0 {
		return fmt.Errorf("core: gather duration must be positive, got %d", c.GatherDuration)
	}
	if c.TuningPeriod <= 0 || c.TuningPeriod%c.GatherDuration != 0 {
		return fmt.Errorf("core: tuning period %d must be a positive multiple of the gather duration %d",
			c.TuningPeriod, c.GatherDuration)
	}
	return nil
}

// GlobalThrottler is the paper's congestion controller: it compares the
// estimated network-wide full-buffer count against a threshold every
// cycle, stopping packet injection while the estimate exceeds the
// threshold. The threshold comes from a ThresholdPolicy — a Tuner for the
// self-tuned scheme or a StaticThreshold for the Figure 5 baseline.
//
// It implements congestion.Controller and sideband.Sink.
type GlobalThrottler struct {
	cfg    GlobalConfig
	est    Estimator
	policy ThresholdPolicy

	// Per-cycle decision, shared by all nodes (every node sees the same
	// aggregate and runs the same algorithm, so their decisions are
	// identical; computing it once per cycle keeps the simulation fast).
	throttled bool

	// Tuning-period accumulation.
	periodFlits   float64
	periodFullSum float64
	periodSnaps   int

	trace []TracePoint
}

// NewGlobalThrottler builds a controller from an estimator and a
// threshold policy.
func NewGlobalThrottler(cfg GlobalConfig, est Estimator, policy ThresholdPolicy) (*GlobalThrottler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if est == nil || policy == nil {
		return nil, fmt.Errorf("core: estimator and policy are required")
	}
	return &GlobalThrottler{cfg: cfg, est: est, policy: policy}, nil
}

// OnSnapshot implements sideband.Sink: feed the estimator and accumulate
// the period's delivered-flit count.
func (g *GlobalThrottler) OnSnapshot(s sideband.Snapshot) {
	g.est.OnSnapshot(s)
	g.periodFlits += float64(s.DeliveredFlits)
	g.periodFullSum += float64(s.FullBuffers)
	g.periodSnaps++
}

// Tick implements congestion.Controller. Call once per cycle after the
// side-band tick.
func (g *GlobalThrottler) Tick(now int64) {
	if now > 0 && now%g.cfg.TuningPeriod == 0 {
		// N_max uses the period's mean full-buffer count: "remember the
		// corresponding number of full buffers".
		avgFull := 0.0
		if g.periodSnaps > 0 {
			avgFull = g.periodFullSum / float64(g.periodSnaps)
		}
		// "Currently throttling" is the instantaneous state at the
		// decision instant. Sampling (rather than latching any throttled
		// cycle in the period) matches the paper's climb rate: near the
		// threshold the network is throttled only part of the time, so
		// optimistic increments fire proportionally, not every period.
		g.policy.OnPeriod(g.periodFlits, avgFull, g.throttled)
		if g.cfg.KeepTrace {
			g.trace = append(g.trace, TracePoint{
				Cycle:      now,
				Threshold:  g.policy.Threshold(),
				Throughput: g.periodFlits,
				Decision:   decisionOf(g.policy),
			})
		}
		g.periodFlits = 0
		g.periodFullSum, g.periodSnaps = 0, 0
	}

	est, ok := g.est.Estimate(now)
	if !ok {
		g.throttled = false
		return
	}
	g.throttled = est > g.policy.Threshold()
}

func decisionOf(p ThresholdPolicy) Decision {
	if t, ok := p.(*Tuner); ok {
		return t.LastDecision()
	}
	return NoChange
}

// AllowInjection implements congestion.Controller. The decision is global:
// identical at every node.
func (g *GlobalThrottler) AllowInjection(_ int64, _, _ topology.NodeID) bool {
	return !g.throttled
}

// Threshold returns the policy's current threshold.
func (g *GlobalThrottler) Threshold() float64 { return g.policy.Threshold() }

// Trace returns the per-period trace (empty unless KeepTrace).
func (g *GlobalThrottler) Trace() []TracePoint { return g.trace }
