package core

import (
	"testing"

	"repro/internal/sideband"
)

func newGT(t *testing.T, policy ThresholdPolicy, keepTrace bool) *GlobalThrottler {
	t.Helper()
	gt, err := NewGlobalThrottler(GlobalConfig{TuningPeriod: 96, GatherDuration: 32, KeepTrace: keepTrace},
		&LinearExtrapolation{}, policy)
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

func TestGlobalConfigValidation(t *testing.T) {
	bad := []GlobalConfig{
		{TuningPeriod: 96, GatherDuration: 0},
		{TuningPeriod: 0, GatherDuration: 32},
		{TuningPeriod: 100, GatherDuration: 32}, // not a multiple
		{TuningPeriod: -96, GatherDuration: 32},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%+v validated", c)
		}
	}
	if err := (GlobalConfig{TuningPeriod: 96, GatherDuration: 32}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewGlobalThrottlerRequiresParts(t *testing.T) {
	cfg := GlobalConfig{TuningPeriod: 96, GatherDuration: 32}
	if _, err := NewGlobalThrottler(cfg, nil, StaticThreshold(10)); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := NewGlobalThrottler(cfg, &LastValue{}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewGlobalThrottler(GlobalConfig{}, &LastValue{}, StaticThreshold(10)); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGlobalThrottlerAllowsBeforeData(t *testing.T) {
	gt := newGT(t, StaticThreshold(10), false)
	gt.Tick(0)
	if !gt.AllowInjection(0, 1, 2) {
		t.Error("throttled before any snapshot arrived")
	}
}

func TestGlobalThrottlerThrottlesAboveThreshold(t *testing.T) {
	gt := newGT(t, StaticThreshold(100), false)
	gt.OnSnapshot(sideband.Snapshot{Taken: 0, FullBuffers: 50})
	gt.OnSnapshot(sideband.Snapshot{Taken: 32, FullBuffers: 50})
	gt.Tick(64)
	if gt.throttled {
		t.Error("throttled at estimate 50 with threshold 100")
	}
	gt.OnSnapshot(sideband.Snapshot{Taken: 64, FullBuffers: 200})
	gt.Tick(96)
	if !gt.throttled {
		t.Error("not throttled with rising estimate above threshold")
	}
	if gt.AllowInjection(96, 0, 1) {
		t.Error("AllowInjection disagrees with the cycle's decision")
	}
}

func TestGlobalThrottlerExactThresholdAllows(t *testing.T) {
	// Paper: injection stops when the estimate is *higher* than the
	// threshold; equal means inject.
	gt := newGT(t, StaticThreshold(50), false)
	gt.OnSnapshot(sideband.Snapshot{Taken: 0, FullBuffers: 50})
	gt.OnSnapshot(sideband.Snapshot{Taken: 32, FullBuffers: 50})
	gt.Tick(64)
	if gt.throttled {
		t.Error("estimate == threshold should allow injection")
	}
}

func TestGlobalThrottlerFeedsTunerPeriods(t *testing.T) {
	tu := MustNewTuner(DefaultTunerConfig(3072))
	gt := newGT(t, tu, true)
	// Simulate 2 tuning periods: snapshots every 32 cycles, ticks every
	// cycle. Full buffers high enough to throttle against the 307.2
	// initial threshold so the tuner sees throttling pressure.
	fulls := []int{400, 400, 400, 400, 400, 400, 400}
	for now := int64(0); now <= 192; now++ {
		if now%32 == 0 {
			i := int(now / 32)
			gt.OnSnapshot(sideband.Snapshot{Taken: now - 32, FullBuffers: fulls[i], DeliveredFlits: 1000})
		}
		gt.Tick(now)
	}
	if len(gt.Trace()) != 2 {
		t.Fatalf("trace has %d points", len(gt.Trace()))
	}
	tp := gt.Trace()[0]
	if tp.Cycle != 96 {
		t.Errorf("first trace point at %d", tp.Cycle)
	}
	// Three snapshots (taken at -32, 0, 32... delivered flits 1000 each)
	// arrive in (0,96]: at ticks 0, 32, 64 -> wait, OnSnapshot is called
	// directly above on multiples of 32 including 96. Cycle 96's snapshot
	// lands before Tick(96) processes the period, so 4 snapshots total.
	if tp.Throughput != 4000 {
		t.Errorf("period throughput = %v, want 4000", tp.Throughput)
	}
	// Throttling at estimate 400 > threshold, no drop on period 2 ->
	// increment by period 2.
	if gt.Trace()[1].Decision != Increment {
		t.Errorf("period 2 decision = %v", gt.Trace()[1].Decision)
	}
}

func TestGlobalThrottlerTraceDisabledByDefault(t *testing.T) {
	gt := newGT(t, StaticThreshold(10), false)
	for now := int64(0); now <= 960; now++ {
		gt.Tick(now)
	}
	if len(gt.Trace()) != 0 {
		t.Error("trace kept without KeepTrace")
	}
}

func TestGlobalThrottlerThresholdAccessor(t *testing.T) {
	gt := newGT(t, StaticThreshold(123), false)
	if gt.Threshold() != 123 {
		t.Error("threshold accessor")
	}
}
