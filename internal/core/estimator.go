// Package core implements the paper's primary contribution: self-tuned,
// global-knowledge-based congestion control. It consumes the side-band's
// g-cycle-delayed global snapshots, estimates the current network-wide
// full-buffer count (linear extrapolation over the last two snapshots),
// compares the estimate against a threshold to gate packet injection, and
// tunes the threshold with throughput-feedback hill climbing (the paper's
// Table 1) plus the local-maximum avoidance mechanism of Section 4.2.
package core

import (
	"repro/internal/sideband"
)

// Estimator predicts the current network-wide full-buffer count from
// delayed side-band snapshots.
type Estimator interface {
	// OnSnapshot feeds a newly visible snapshot.
	OnSnapshot(s sideband.Snapshot)
	// Estimate returns the predicted full-buffer count at cycle now.
	// ok is false until enough snapshots have arrived.
	Estimate(now int64) (value float64, ok bool)
}

// EstimatorKind names an Estimator, as a scheme's estimator field
// does; "" is LinearEstimator.
type EstimatorKind = string

const (
	LinearEstimator    EstimatorKind = "linear" // LinearExtrapolation, the paper's default
	LastValueEstimator EstimatorKind = "last"   // LastValue
)

// LastValue predicts the most recent snapshot's value: "use the state
// observed in the immediately previous network snapshot until the next
// snapshot becomes available".
type LastValue struct {
	have bool
	last sideband.Snapshot
}

// OnSnapshot implements Estimator.
func (e *LastValue) OnSnapshot(s sideband.Snapshot) {
	e.last = s
	e.have = true
}

// Estimate implements Estimator.
func (e *LastValue) Estimate(int64) (float64, bool) {
	if !e.have {
		return 0, false
	}
	return float64(e.last.FullBuffers), true
}

// LinearExtrapolation predicts with a straight line through the previous
// two snapshots, the paper's slightly more sophisticated method (worth
// ~3-5% throughput in its experiments). Estimates are clamped at zero;
// before two snapshots arrive it degrades to last-value.
type LinearExtrapolation struct {
	n int
	s [2]sideband.Snapshot // s[0] older, s[1] newer
}

// OnSnapshot implements Estimator.
func (e *LinearExtrapolation) OnSnapshot(snap sideband.Snapshot) {
	e.s[0] = e.s[1]
	e.s[1] = snap
	if e.n < 2 {
		e.n++
	}
}

// Estimate implements Estimator.
func (e *LinearExtrapolation) Estimate(now int64) (float64, bool) {
	switch e.n {
	case 0:
		return 0, false
	case 1:
		return float64(e.s[1].FullBuffers), true
	}
	dt := e.s[1].Taken - e.s[0].Taken
	if dt <= 0 {
		return float64(e.s[1].FullBuffers), true
	}
	slope := float64(e.s[1].FullBuffers-e.s[0].FullBuffers) / float64(dt)
	v := float64(e.s[1].FullBuffers) + float64(slope*float64(now-e.s[1].Taken)) // rounded: never fused (make fused-ops)
	if v < 0 {
		v = 0
	}
	return v, true
}
