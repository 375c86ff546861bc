package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sideband"
)

func snap(taken int64, full int) sideband.Snapshot {
	return sideband.Snapshot{Taken: taken, Visible: taken + 32, FullBuffers: full}
}

func TestLastValue(t *testing.T) {
	var e LastValue
	if _, ok := e.Estimate(0); ok {
		t.Error("estimate before snapshots")
	}
	e.OnSnapshot(snap(0, 100))
	if v, ok := e.Estimate(31); !ok || v != 100 {
		t.Errorf("estimate = %v ok=%v", v, ok)
	}
	e.OnSnapshot(snap(32, 250))
	if v, _ := e.Estimate(63); v != 250 {
		t.Errorf("estimate after second snapshot = %v", v)
	}
}

func TestLinearExtrapolationBeforeData(t *testing.T) {
	var e LinearExtrapolation
	if _, ok := e.Estimate(0); ok {
		t.Error("estimate with no snapshots")
	}
	e.OnSnapshot(snap(0, 40))
	if v, ok := e.Estimate(10); !ok || v != 40 {
		t.Errorf("single-snapshot estimate = %v ok=%v (should fall back to last value)", v, ok)
	}
}

func TestLinearExtrapolationExactOnLine(t *testing.T) {
	var e LinearExtrapolation
	e.OnSnapshot(snap(0, 100))
	e.OnSnapshot(snap(32, 164)) // slope = 2 buffers/cycle
	cases := map[int64]float64{
		32: 164,
		33: 166,
		48: 196,
		64: 228,
	}
	for now, want := range cases {
		if v, ok := e.Estimate(now); !ok || v != want {
			t.Errorf("Estimate(%d) = %v, want %v", now, v, want)
		}
	}
}

func TestLinearExtrapolationDecreasingClampsAtZero(t *testing.T) {
	var e LinearExtrapolation
	e.OnSnapshot(snap(0, 64))
	e.OnSnapshot(snap(32, 16)) // slope -1.5/cycle; hits zero at ~42.7
	if v, _ := e.Estimate(100); v != 0 {
		t.Errorf("negative extrapolation not clamped: %v", v)
	}
	if v, _ := e.Estimate(40); v != 16-1.5*8 {
		t.Errorf("Estimate(40) = %v", v)
	}
}

func TestLinearExtrapolationDegenerateTimes(t *testing.T) {
	var e LinearExtrapolation
	e.OnSnapshot(snap(32, 10))
	e.OnSnapshot(snap(32, 20)) // same timestamp: fall back to last value
	if v, _ := e.Estimate(64); v != 20 {
		t.Errorf("degenerate dt estimate = %v", v)
	}
}

// Property: with snapshots on any line with non-negative values, the
// extrapolation at snapshot times reproduces the snapshots exactly.
func TestLinearExtrapolationQuick(t *testing.T) {
	f := func(base uint16, slope int8) bool {
		var e LinearExtrapolation
		b := int64(base)
		s := int64(slope)
		v0 := b + 1000
		v1 := v0 + 32*s
		if v1 < 0 {
			return true // skip lines that go negative at the sample
		}
		e.OnSnapshot(snap(0, int(v0)))
		e.OnSnapshot(snap(32, int(v1)))
		got, ok := e.Estimate(64)
		want := float64(v1 + 32*s)
		if want < 0 {
			want = 0
		}
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
