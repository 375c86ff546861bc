package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sideband"
)

// Property: under any sequence of (throughput, fullBuffers, throttling)
// feedback, the tuner's threshold stays within [0, TotalBuffers] and its
// remembered maximum never exceeds the best throughput seen since the
// last staleness reset.
func TestTunerBoundsQuick(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tu := MustNewTuner(DefaultTunerConfig(3072))
		best := 0.0
		for i := 0; i < int(steps)+1; i++ {
			tput := rng.Float64() * 10000
			full := rng.Float64() * 3072
			throttling := rng.Intn(2) == 0
			tu.OnPeriod(tput, full, throttling)
			if tput > best {
				best = tput
			}
			if th := tu.Threshold(); th < 0 || th > 3072 {
				return false
			}
			if tu.maxTput > best {
				return false
			}
			if tu.maxTput == 0 {
				best = 0 // staleness reset: the window restarts
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the tuner is a pure function of its feedback sequence
// (replaying the same sequence gives the same thresholds).
func TestTunerDeterministicQuick(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		play := func() float64 {
			rng := rand.New(rand.NewSource(seed))
			tu := MustNewTuner(DefaultTunerConfig(3072))
			for i := 0; i < int(steps)+1; i++ {
				tu.OnPeriod(rng.Float64()*5000, rng.Float64()*3072, rng.Intn(2) == 0)
			}
			return tu.Threshold()
		}
		return play() == play()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with monotonically rising throughput and constant throttling,
// the tuner only ever increments (no spurious resets or decrements).
func TestTunerMonotoneRiseNeverDecrements(t *testing.T) {
	tu := MustNewTuner(DefaultTunerConfig(3072))
	tput := 100.0
	for i := 0; i < 50; i++ {
		tu.OnPeriod(tput, 200, true)
		if d := tu.LastDecision(); d != Increment && d != NoChange {
			t.Fatalf("step %d: decision %v under rising throughput", i, d)
		}
		tput *= 1.1
	}
}

// Property: the GlobalThrottler's per-cycle decision equals the direct
// comparison of the estimate against the policy threshold.
func TestGlobalThrottlerDecisionConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		est := &LinearExtrapolation{}
		gt, err := NewGlobalThrottler(GlobalConfig{TuningPeriod: 96, GatherDuration: 32},
			est, StaticThreshold(rng.Float64()*500))
		if err != nil {
			return false
		}
		check := &LinearExtrapolation{}
		for now := int64(0); now < 500; now++ {
			if now%32 == 0 {
				s := sideband.Snapshot{Taken: now - 32, FullBuffers: rng.Intn(3072)}
				gt.OnSnapshot(s)
				check.OnSnapshot(s)
			}
			gt.Tick(now)
			want := false
			if v, ok := check.Estimate(now); ok {
				want = v > gt.Threshold()
			}
			if gt.throttled != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The tuner's trajectory under a saturating plateau: climbs while
// throttling, then a big drop forces it back to the remembered good
// point. This is the Figure 4 story at unit-test scale.
func TestTunerFig4Story(t *testing.T) {
	tu := MustNewTuner(DefaultTunerConfig(3072))
	// Phase 1: healthy operation at tput 1000, occupancy 300, throttled.
	for i := 0; i < 10; i++ {
		tu.OnPeriod(1000, 300, true)
	}
	if tu.Threshold() <= 307.2 {
		t.Fatalf("threshold did not climb: %v", tu.Threshold())
	}
	peak := tu.Threshold()
	// Phase 2: the network creeps into saturation; throughput erodes
	// slowly (never >25% in one period) while occupancy rises.
	tput := 1000.0
	for i := 0; i < 8; i++ {
		tput *= 0.9
		tu.OnPeriod(tput, 800, true)
	}
	// Once tput fell below 75% of max, the reset must have pulled the
	// threshold back to min(Tmax, Nmax) = 300.
	if tu.Threshold() >= peak {
		t.Errorf("local-maximum avoidance never engaged: threshold %v", tu.Threshold())
	}
	if tu.LastDecision() != Reset && tu.Threshold() > 400 {
		t.Errorf("expected a reset toward N_max=300, threshold %v decision %v",
			tu.Threshold(), tu.LastDecision())
	}
}
