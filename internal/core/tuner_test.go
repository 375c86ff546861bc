package core

import (
	"math"
	"testing"
)

func paperTuner(t *testing.T, avoid bool) *Tuner {
	t.Helper()
	cfg := DefaultTunerConfig(3072)
	cfg.AvoidLocalMaxima = avoid
	tu, err := NewTuner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

func TestDefaultTunerConfigPaperValues(t *testing.T) {
	cfg := DefaultTunerConfig(3072)
	// Paper: increment 1% = 30 buffers, decrement 4% = 122 buffers
	// (we keep the exact fractions; the paper rounds to integers).
	if got := cfg.IncrementFraction * 3072; math.Abs(got-30.72) > 1e-9 {
		t.Errorf("increment = %v buffers", got)
	}
	if got := cfg.DecrementFraction * 3072; math.Abs(got-122.88) > 1e-9 {
		t.Errorf("decrement = %v buffers", got)
	}
	if cfg.DropFraction != 0.75 || cfg.ResetPeriods != 5 {
		t.Errorf("cfg = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTunerConfigValidation(t *testing.T) {
	base := DefaultTunerConfig(3072)
	mutations := []func(*TunerConfig){
		func(c *TunerConfig) { c.TotalBuffers = 0 },
		func(c *TunerConfig) { c.InitialFraction = 0 },
		func(c *TunerConfig) { c.InitialFraction = 1.5 },
		func(c *TunerConfig) { c.IncrementFraction = -0.1 },
		func(c *TunerConfig) { c.DecrementFraction = 0 },
		func(c *TunerConfig) { c.DropFraction = 0 },
		func(c *TunerConfig) { c.DropFraction = 1 },
		func(c *TunerConfig) { c.RecoverFraction = 1.2 },
		func(c *TunerConfig) { c.ResetPeriods = 0 },
	}
	for i, m := range mutations {
		c := base
		m(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
		if _, err := NewTuner(c); err == nil {
			t.Errorf("NewTuner accepted mutation %d", i)
		}
	}
}

func TestMustNewTunerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewTuner(TunerConfig{})
}

func TestTunerInitialThreshold(t *testing.T) {
	tu := paperTuner(t, true)
	if got := tu.Threshold(); math.Abs(got-307.2) > 1e-9 {
		t.Errorf("initial threshold = %v, want 10%% of 3072", got)
	}
}

// Table 1, row "no drop, not throttling": no change.
func TestTunerDecisionNoChange(t *testing.T) {
	tu := paperTuner(t, true)
	before := tu.Threshold()
	tu.OnPeriod(1000, 50, false)
	tu.OnPeriod(1000, 50, false)
	if tu.LastDecision() != NoChange {
		t.Errorf("decision = %v", tu.LastDecision())
	}
	if tu.Threshold() != before {
		t.Errorf("threshold moved to %v", tu.Threshold())
	}
}

// Table 1, row "no drop, throttling": increment.
func TestTunerDecisionIncrement(t *testing.T) {
	tu := paperTuner(t, true)
	before := tu.Threshold()
	tu.OnPeriod(1000, 50, true)
	if tu.LastDecision() != Increment {
		t.Errorf("decision = %v", tu.LastDecision())
	}
	if got, want := tu.Threshold(), before+30.72; math.Abs(got-want) > 1e-9 {
		t.Errorf("threshold = %v, want %v", got, want)
	}
}

// Table 1, row "drop, throttling": decrement.
func TestTunerDecisionDecrementWhileThrottling(t *testing.T) {
	tu := paperTuner(t, false) // isolate the hill climb from resets
	tu.OnPeriod(1000, 50, false)
	before := tu.Threshold()
	tu.OnPeriod(700, 60, true) // 700 < 0.75*1000
	if tu.LastDecision() != Decrement {
		t.Errorf("decision = %v", tu.LastDecision())
	}
	if got, want := tu.Threshold(), before-122.88; math.Abs(got-want) > 1e-9 {
		t.Errorf("threshold = %v, want %v", got, want)
	}
}

// Table 1, row "drop, not throttling": still decrement (offered load may
// simply have decreased; backing off is safe).
func TestTunerDecisionDecrementWhileNotThrottling(t *testing.T) {
	tu := paperTuner(t, false)
	tu.OnPeriod(1000, 50, false)
	tu.OnPeriod(700, 60, false)
	if tu.LastDecision() != Decrement {
		t.Errorf("decision = %v", tu.LastDecision())
	}
}

func TestTunerDropNeedsQuarterLoss(t *testing.T) {
	tu := paperTuner(t, false)
	tu.OnPeriod(1000, 50, false)
	tu.OnPeriod(751, 50, false) // 751 >= 750: not a drop
	if tu.LastDecision() != NoChange {
		t.Errorf("24.9%% loss treated as drop: %v", tu.LastDecision())
	}
	tu.OnPeriod(500, 50, false) // 500 < 0.75*751
	if tu.LastDecision() != Decrement {
		t.Errorf("33%% loss not treated as drop: %v", tu.LastDecision())
	}
}

func TestTunerFirstPeriodNeverDrop(t *testing.T) {
	tu := paperTuner(t, true)
	tu.OnPeriod(10, 5, false)
	if tu.LastDecision() != NoChange {
		t.Errorf("first period decision = %v", tu.LastDecision())
	}
}

func TestTunerThresholdClampedAtZeroAndMax(t *testing.T) {
	tu := paperTuner(t, false)
	tu.OnPeriod(1000, 50, false)
	for i := 0; i < 20; i++ {
		tu.OnPeriod(1, 50, false) // relentless drops
	}
	if tu.Threshold() < 0 {
		t.Errorf("threshold went negative: %v", tu.Threshold())
	}
	tu2 := paperTuner(t, false)
	for i := 0; i < 200; i++ {
		tu2.OnPeriod(1000+float64(i), 50, true) // endless increments
	}
	if tu2.Threshold() > 3072 {
		t.Errorf("threshold exceeded total buffers: %v", tu2.Threshold())
	}
}

func TestTunerRemembersBestPoint(t *testing.T) {
	tu := paperTuner(t, true)
	tu.OnPeriod(500, 100, true)
	tu.OnPeriod(900, 200, true)
	tu.OnPeriod(800, 300, true)
	if tu.maxTput != 900 || tu.nMax != 200 {
		t.Errorf("best = %v @ %v", tu.maxTput, tu.nMax)
	}
}

// Section 4.2: big drop below the max forces threshold to min(Tmax, Nmax).
func TestTunerLocalMaxAvoidanceUsesNmaxWhenSmaller(t *testing.T) {
	tu := paperTuner(t, true)
	// Build up a max with Nmax below the threshold at the time.
	tu.OnPeriod(1000, 100, false) // max=1000, nMax=100, tMax=307.2
	tu.OnPeriod(600, 400, false)  // 600 < 0.75*1000 -> reset
	if tu.LastDecision() != Reset {
		t.Fatalf("decision = %v", tu.LastDecision())
	}
	if got := tu.Threshold(); got != 100 {
		t.Errorf("threshold = %v, want min(307.2, 100) = 100", got)
	}
}

func TestTunerLocalMaxAvoidanceUsesTmaxWhenSmaller(t *testing.T) {
	cfg := DefaultTunerConfig(3072)
	cfg.InitialFraction = 0.02 // threshold 61.44
	tu := MustNewTuner(cfg)
	tu.OnPeriod(1000, 500, false) // nMax=500 > tMax=61.44
	tu.OnPeriod(100, 800, false)
	if tu.LastDecision() != Reset {
		t.Fatalf("decision = %v", tu.LastDecision())
	}
	if got := tu.Threshold(); math.Abs(got-61.44) > 1e-9 {
		t.Errorf("threshold = %v, want tMax 61.44", got)
	}
}

func TestTunerHillClimbOnlyNeverResets(t *testing.T) {
	tu := paperTuner(t, false)
	tu.OnPeriod(1000, 100, false)
	tu.OnPeriod(100, 400, false)
	if tu.LastDecision() == Reset {
		t.Error("hill-climb-only tuner reset")
	}
}

// After r consecutive resets the remembered max is recomputed, adapting
// to a changed communication pattern.
func TestTunerStaleMaxRecomputedAfterR(t *testing.T) {
	tu := paperTuner(t, true)
	tu.OnPeriod(1000, 100, false) // establish max
	for i := 0; i < 5; i++ {
		tu.OnPeriod(100, 400, false) // far below max: reset each time
		if i < 4 {
			if tu.maxTput != 1000 {
				t.Fatalf("max forgotten after %d resets", i+1)
			}
		}
	}
	if tu.maxTput != 0 {
		t.Errorf("max not recomputed after r=5 resets: %v", tu.maxTput)
	}
	// The next good period becomes the new max.
	tu.OnPeriod(500, 50, false)
	if tu.maxTput != 500 {
		t.Errorf("new max = %v, want 500", tu.maxTput)
	}
}

func TestTunerResetStreakBrokenByGoodPeriod(t *testing.T) {
	tu := paperTuner(t, true)
	tu.OnPeriod(1000, 100, false)
	tu.OnPeriod(100, 400, false) // reset 1
	tu.OnPeriod(100, 400, false) // reset 2
	tu.OnPeriod(950, 120, false) // good: streak broken
	for i := 0; i < 4; i++ {
		tu.OnPeriod(100, 400, false) // resets 1..4 again
	}
	if tu.maxTput != 1000 {
		t.Errorf("max lost after only 4 consecutive resets: %v", tu.maxTput)
	}
}

// A record-setting period can never itself trigger a reset.
func TestTunerRecordPeriodNoReset(t *testing.T) {
	tu := paperTuner(t, true)
	tu.OnPeriod(100, 10, false)
	tu.OnPeriod(5000, 700, true) // new record, also > prev: increment
	if tu.LastDecision() == Reset {
		t.Error("record period triggered reset")
	}
}

func TestStaticThreshold(t *testing.T) {
	s := StaticThreshold(250)
	if s.Threshold() != 250 {
		t.Error("threshold")
	}
	s.OnPeriod(1, 2, true)
	if s.Threshold() != 250 {
		t.Error("static threshold moved")
	}
}

func TestDecisionStrings(t *testing.T) {
	for d, want := range map[Decision]string{NoChange: "no-change", Increment: "increment", Decrement: "decrement", Reset: "reset"} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision should format")
	}
}
