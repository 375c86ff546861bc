package core

import (
	"fmt"

	"repro/internal/congestion"
)

// Observe implements congestion.Controller. The global throttler's
// feedback arrives through the side-band snapshot path (OnSnapshot),
// not per-packet events, so the hook is a no-op.
func (g *GlobalThrottler) Observe(congestion.FeedbackEvent) {}

// The paper's global schemes self-register: a fixed threshold, the full
// self-tuned controller, and the hill-climb-only ablation. One factory
// and one check serve all three — they differ only in threshold policy —
// keyed by the registered name.
func init() {
	global := congestion.EstimatorField | congestion.TuningPeriodField | congestion.KeepTraceField
	congestion.Register("static", global|congestion.StaticThresholdField, checkGlobal, newGlobalController)
	congestion.Register("tune", global|congestion.TunerField, checkGlobal, newGlobalController)
	congestion.Register("tune-hillclimb", global|congestion.TunerField, checkGlobal, newGlobalController)
}

// DefaultTuningPeriod is 3g, the paper's 96 cycles at g = 32.
func DefaultTuningPeriod(g int64) int64 { return 3 * g }

// globalConfig resolves a global scheme's throttler configuration at
// gather duration g: an unset tuning period is DefaultTuningPeriod(g).
func globalConfig(p congestion.Params, g int64) GlobalConfig {
	period := p.TuningPeriod
	if period == 0 {
		period = DefaultTuningPeriod(g)
	}
	return GlobalConfig{TuningPeriod: period, GatherDuration: g, KeepTrace: p.KeepTrace}
}

// avoidsLocalMaxima reports whether the named global scheme runs the
// tuner's local-maximum avoidance: all but the hill-climb ablation do.
func avoidsLocalMaxima(kind string) bool { return kind != "tune-hillclimb" }

// checkGlobal refuses the Params newGlobalController cannot build from,
// through the validators of the configs it builds.
func checkGlobal(p congestion.Params, g, _ int64) error {
	if p.Kind == "static" && p.StaticThreshold <= 0 {
		return fmt.Errorf("core: static scheme needs a positive static threshold, got %g", p.StaticThreshold)
	}
	if p.Estimator != "" && p.Estimator != LinearEstimator && p.Estimator != LastValueEstimator {
		return fmt.Errorf("core: unknown estimator %q", p.Estimator)
	}
	if err := globalConfig(p, g).Validate(); err != nil {
		return err
	}
	if tc := p.Tuner; tc != nil {
		if err := tc.Validate(); err != nil {
			return err
		}
		if avoid := avoidsLocalMaxima(string(p.Kind)); tc.AvoidLocalMaxima != avoid {
			return fmt.Errorf("core: tuner avoid_local_maxima %t contradicts scheme %q, which runs with it %t", tc.AvoidLocalMaxima, p.Kind, avoid)
		}
	}
	return nil
}

// newGlobalController assembles estimator, threshold policy and global
// throttler for one of the registered global scheme names, and
// subscribes the result to the side-band's visible snapshots.
func newGlobalController(env congestion.Env) (congestion.Controller, error) {
	p := env.Params
	var est Estimator
	if p.Estimator == LastValueEstimator {
		est = &LastValue{}
	} else {
		est = &LinearExtrapolation{}
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
		// The kind decides local-maximum avoidance; checkGlobal refuses
		// an override that disagrees.
		tc.AvoidLocalMaxima = avoidsLocalMaxima(env.Kind)
		tuner, err := NewTuner(tc)
		if err != nil {
			return nil, err
		}
		policy = tuner
	}
	glob, err := NewGlobalThrottler(globalConfig(p, env.Side.GatherDuration()), est, policy)
	if err != nil {
		return nil, err
	}
	env.Side.Subscribe(glob)
	return glob, nil
}
