package core

import (
	"fmt"

	"repro/internal/congestion"
)

// ThresholdPolicy supplies the full-buffer threshold against which the
// congestion estimate is compared, and is told the outcome of each tuning
// period so it can adapt.
type ThresholdPolicy interface {
	// Threshold returns the current threshold in buffers.
	Threshold() float64
	// OnPeriod reports one completed tuning period: the network-wide
	// throughput observed (flits delivered, side-band units), the
	// current full-buffer count, and whether injection was throttled at
	// any point during the period.
	OnPeriod(throughput, fullBuffers float64, throttling bool)
}

// StaticThreshold never adapts; it is the paper's Figure 5 comparison
// point demonstrating that no single threshold suits all communication
// patterns.
type StaticThreshold float64

// Threshold implements ThresholdPolicy.
func (s StaticThreshold) Threshold() float64 { return float64(s) }

// OnPeriod implements ThresholdPolicy.
func (s StaticThreshold) OnPeriod(float64, float64, bool) {}

// TunerConfig parameterizes the self-tuning mechanism; it is declared
// beside the scheme it belongs to, congestion.Params.
type TunerConfig = congestion.TunerConfig

// DefaultTunerConfig returns the paper's tuning parameters for a network
// with the given total buffer count.
func DefaultTunerConfig(totalBuffers int) TunerConfig {
	return TunerConfig{
		TotalBuffers:      totalBuffers,
		InitialFraction:   0.10,
		IncrementFraction: 0.01,
		DecrementFraction: 0.04,
		DropFraction:      0.75,
		RecoverFraction:   0.75,
		ResetPeriods:      5,
		AvoidLocalMaxima:  true,
	}
}

// Decision is the hill-climbing action taken for a tuning period,
// mirroring the paper's Table 1 plus the corrective reset of Section 4.2.
type Decision uint8

// Tuning decisions.
const (
	// NoChange: not throttling, no bandwidth drop.
	NoChange Decision = iota
	// Increment: throttling but no bandwidth drop — optimistically raise
	// the threshold.
	Increment
	// Decrement: bandwidth dropped (whether throttling or not).
	Decrement
	// Reset: throughput fell significantly below the remembered maximum;
	// threshold forced to min(T_max, N_max).
	Reset
)

func (d Decision) String() string {
	switch d {
	case NoChange:
		return "no-change"
	case Increment:
		return "increment"
	case Decrement:
		return "decrement"
	case Reset:
		return "reset"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Tuner is the self-tuning threshold policy: constant-step hill climbing
// on delivered throughput with local-maximum avoidance.
type Tuner struct {
	cfg TunerConfig

	threshold float64
	prevTput  float64
	havePrev  bool

	// Best observed operating point (Section 4.2).
	maxTput     float64
	nMax        float64
	tMax        float64
	resetStreak int

	lastDecision Decision
}

// NewTuner returns a tuner with the paper's algorithm. The config must
// validate.
func NewTuner(cfg TunerConfig) (*Tuner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tuner{
		cfg:       cfg,
		threshold: cfg.InitialFraction * float64(cfg.TotalBuffers),
	}, nil
}

// MustNewTuner is NewTuner for constant configurations.
func MustNewTuner(cfg TunerConfig) *Tuner {
	t, err := NewTuner(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Threshold implements ThresholdPolicy.
func (t *Tuner) Threshold() float64 { return t.threshold }

// LastDecision returns the action taken in the most recent period.
func (t *Tuner) LastDecision() Decision { return t.lastDecision }

// OnPeriod implements ThresholdPolicy: one hill-climbing step.
func (t *Tuner) OnPeriod(throughput, fullBuffers float64, throttling bool) {
	// Remember the best operating point before deciding, so a
	// record-setting period can never immediately trigger a reset.
	if throughput > t.maxTput {
		t.maxTput = throughput
		t.nMax = fullBuffers
		t.tMax = t.threshold
	}

	inc := float64(t.cfg.IncrementFraction * float64(t.cfg.TotalBuffers)) // rounded: never fused (make fused-ops)
	dec := float64(t.cfg.DecrementFraction * float64(t.cfg.TotalBuffers))

	drop := t.havePrev && throughput < t.cfg.DropFraction*t.prevTput
	switch {
	case drop:
		// Decreased throughput: either saturation (must back off) or a
		// drop in offered load (safe to back off).
		t.threshold -= dec
		t.lastDecision = Decrement
	case throttling:
		// Throttling with no drop: optimistically raise the threshold;
		// if we overshoot, the next period's drop pulls it back.
		t.threshold += inc
		t.lastDecision = Increment
	default:
		t.lastDecision = NoChange
	}

	// Local-maximum avoidance: if throughput fell significantly below
	// the best we have seen, recreate the conditions of the best period.
	if t.cfg.AvoidLocalMaxima && t.maxTput > 0 && throughput < t.cfg.RecoverFraction*t.maxTput {
		t.threshold = min(t.tMax, t.nMax)
		t.lastDecision = Reset
		t.resetStreak++
		if t.resetStreak >= t.cfg.ResetPeriods {
			// Even min(T_max, N_max) cannot prevent saturation: the
			// communication pattern must have changed. Forget the stale
			// maximum and start locating it afresh.
			t.maxTput, t.nMax, t.tMax = 0, 0, 0
			t.resetStreak = 0
		}
	} else {
		t.resetStreak = 0
	}

	// Clamp to physically meaningful thresholds.
	if t.threshold < 0 {
		t.threshold = 0
	}
	if limit := float64(t.cfg.TotalBuffers); t.threshold > limit {
		t.threshold = limit
	}

	t.prevTput = throughput
	t.havePrev = true
}
