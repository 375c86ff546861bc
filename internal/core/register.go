package core

import "repro/internal/congestion"

// Observe implements congestion.Controller. The global throttler's
// feedback arrives through the side-band snapshot path (OnSnapshot),
// not per-packet events, so the hook is a no-op.
func (g *GlobalThrottler) Observe(congestion.FeedbackEvent) {}

// The paper's global schemes self-register: a fixed threshold, the full
// self-tuned controller, and the hill-climb-only ablation. One factory
// serves all three — they differ only in threshold policy — keyed by
// the registered name the Env carries.
func init() {
	global := congestion.EstimatorField | congestion.TuningPeriodField | congestion.KeepTraceField
	congestion.Register("static", global|congestion.StaticThresholdField, newGlobalController)
	congestion.Register("tune", global|congestion.TunerField, newGlobalController)
	congestion.Register("tune-hillclimb", global|congestion.TunerField, newGlobalController)
}

// DefaultTuningPeriod is 3g, the paper's 96 cycles at g = 32.
func DefaultTuningPeriod(g int64) int64 { return 3 * g }

// newGlobalController assembles estimator, threshold policy and global
// throttler for one of the registered global scheme names, and
// subscribes the result to the side-band's visible snapshots.
func newGlobalController(env congestion.Env) (congestion.Controller, error) {
	p := env.Params
	var est Estimator
	if p.Estimator == "last" {
		est = &LastValue{}
	} else {
		est = &LinearExtrapolation{}
	}
	g := env.Side.GatherDuration()
	period := p.TuningPeriod
	if period == 0 {
		period = DefaultTuningPeriod(g)
	}
	var policy ThresholdPolicy
	switch env.Kind {
	case "static":
		policy = StaticThreshold(p.StaticThreshold)
	default: // tune, tune-hillclimb
		tc := DefaultTunerConfig(env.Topo.TotalVCBuffers(env.Local.VCsPerPort()))
		if p.Tuner != nil {
			tc = *p.Tuner
		}
		// The kind decides local-maximum avoidance; sim's config
		// validation refuses an override that disagrees.
		tc.AvoidLocalMaxima = env.Kind != "tune-hillclimb"
		tuner, err := NewTuner(tc)
		if err != nil {
			return nil, err
		}
		policy = tuner
	}
	glob, err := NewGlobalThrottler(GlobalConfig{
		TuningPeriod:   period,
		GatherDuration: g,
		KeepTrace:      p.KeepTrace,
	}, est, policy)
	if err != nil {
		return nil, err
	}
	env.Side.Subscribe(glob)
	return glob, nil
}
