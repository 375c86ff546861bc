package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestAccumulatorBasic(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		a.Add(v)
	}
	if a.Count != 5 || a.Sum != 14 || a.Min != 1 || a.Max != 5 {
		t.Errorf("acc = %+v", a)
	}
	if got := a.Mean(); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
}

func TestAccumulatorNegativeFirst(t *testing.T) {
	var a Accumulator
	a.Add(-3)
	if a.Min != -3 || a.Max != -3 {
		t.Errorf("first sample min/max: %+v", a)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(100, 32)
	for i := 0; i < 4; i++ {
		s.Append(float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.CycleAt(3) != 100+3*32 {
		t.Errorf("CycleAt(3) = %d", s.CycleAt(3))
	}
	if got := s.Mean(); got != 1.5 {
		t.Errorf("Mean = %v", got)
	}
	// Window covering points 1 and 2: cycles [132, 196).
	if got := s.Window(132, 196); got != 1.5 {
		t.Errorf("Window = %v", got)
	}
	if got := s.Window(5000, 6000); got != 0 {
		t.Errorf("empty window = %v", got)
	}
}

func TestSeriesEmptyMean(t *testing.T) {
	if NewSeries(0, 1).Mean() != 0 {
		t.Error("empty series mean should be 0")
	}
}

func TestNewSeriesPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeries(0, 0)
}

func TestLatencyStats(t *testing.T) {
	var l LatencyStats
	if l.Mean() != 0 || l.Max() != 0 || l.Percentile(50) != 0 {
		t.Error("empty latency stats should be zero")
	}
	for _, v := range []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
		l.Add(v)
	}
	if l.Count() != 10 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 55 {
		t.Errorf("Mean = %v", l.Mean())
	}
	if l.Max() != 100 {
		t.Errorf("Max = %v", l.Max())
	}
	if got := l.Percentile(50); got != 50 {
		t.Errorf("P50 = %v", got)
	}
	if got := l.Percentile(90); got != 90 {
		t.Errorf("P90 = %v", got)
	}
	if got := l.Percentile(0); got != 10 {
		t.Errorf("P0 = %v", got)
	}
	if got := l.Percentile(100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	// Adding after a percentile query must resort.
	l.Add(5)
	if got := l.Percentile(0); got != 5 {
		t.Errorf("P0 after add = %v", got)
	}
}

// refLatency is the reference LatencyStats is held to: it keeps every
// sample and sorts them all for each percentile.
type refLatency struct{ samples []float64 }

func (r *refLatency) percentile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), r.samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	return s[max(0, int(math.Ceil(q/100*float64(len(s))))-1)]
}

// TestLatencyStatsMatchesSortedReference checks the histogram against
// a reference that sorts every sample: mostly integral latencies, with
// non-integral, negative and at-or-above-cap samples mixed in, and
// queries interleaved with the adds. Count, Mean, Max and every
// percentile must be exactly equal.
func TestLatencyStatsMatchesSortedReference(t *testing.T) {
	qs := []float64{0, 0.1, 50, 95, 99, 100}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l LatencyStats
		var ref refLatency
		var acc Accumulator
		n := rng.Intn(3000)
		for i := 0; i < n; i++ {
			var v float64
			switch r := rng.Intn(20); {
			case r < 15:
				v = float64(rng.Intn(400))
			case r == 15:
				v = rng.Float64() * 400 // non-integral
			case r == 16:
				v = -float64(rng.Intn(50)) - rng.Float64()*float64(rng.Intn(2))
			case r == 17:
				v = latencyCap + float64(rng.Intn(3)) // at or just above the cap
			case r == 18:
				v = latencyCap - 1 // the histogram's last slot
			default:
				v = float64(rng.Intn(latencyCap * 4))
			}
			l.Add(v)
			ref.samples = append(ref.samples, v)
			acc.Add(v)
			if rng.Intn(200) == 0 {
				q := qs[rng.Intn(len(qs))]
				if got, want := l.Percentile(q), ref.percentile(q); got != want {
					t.Fatalf("seed %d after %d adds: P%g = %v, want %v", seed, i+1, q, got, want)
				}
			}
		}
		if l.Count() != int64(len(ref.samples)) {
			t.Fatalf("seed %d: Count = %d, want %d", seed, l.Count(), len(ref.samples))
		}
		wantMax := 0.0
		if acc.Count > 0 {
			wantMax = acc.Max
		}
		if l.Mean() != acc.Mean() || l.Max() != wantMax {
			t.Fatalf("seed %d: Mean/Max = %v/%v, want %v/%v", seed, l.Mean(), l.Max(), acc.Mean(), wantMax)
		}
		for _, q := range qs {
			if got, want := l.Percentile(q), ref.percentile(q); got != want {
				t.Fatalf("seed %d: P%g = %v, want %v", seed, q, got, want)
			}
		}
	}
}

// TestLatencyStatsMemoryFollowsMaxLatency pins the point of the
// histogram: a million samples below 1000 cycles hold a histogram of a
// few thousand counters and no overflow list.
func TestLatencyStatsMemoryFollowsMaxLatency(t *testing.T) {
	var l LatencyStats
	for i := 0; i < 1_000_000; i++ {
		l.Add(float64(i % 1000))
	}
	if cap(l.counts) > 4*1000 || len(l.overflow) != 0 {
		t.Fatalf("histogram cap %d, overflow %d after 1e6 samples below 1000", cap(l.counts), len(l.overflow))
	}
	if got := l.Percentile(50); got != 499 {
		t.Fatalf("P50 = %v, want 499", got)
	}
}

// TestLatencyStatsResetMatchesFresh fills a LatencyStats with a wide
// spread of samples, overflow included, resets it and records a
// narrower set: every query must equal a fresh LatencyStats' on the same
// samples, and the histogram and overflow list must stay in the storage
// the first fill grew.
func TestLatencyStatsResetMatchesFresh(t *testing.T) {
	var l LatencyStats
	for i := 0; i < 5000; i++ {
		l.Add(float64(i))
	}
	l.Add(latencyCap + 1)
	l.Add(0.5)
	l.Percentile(50) // sorts the overflow list
	counts, overflow := &l.counts[0], &l.overflow[0]

	samples := []float64{3, 9, 9, 1.5, 40, latencyCap + 7, 12}
	l.Reset()
	var fresh LatencyStats
	for _, v := range samples {
		l.Add(v)
		fresh.Add(v)
	}
	if l.Count() != fresh.Count() || l.Mean() != fresh.Mean() || l.Max() != fresh.Max() {
		t.Fatalf("after Reset: Count/Mean/Max = %d/%v/%v, fresh %d/%v/%v",
			l.Count(), l.Mean(), l.Max(), fresh.Count(), fresh.Mean(), fresh.Max())
	}
	for _, q := range []float64{0, 10, 50, 90, 95, 100} {
		if got, want := l.Percentile(q), fresh.Percentile(q); got != want {
			t.Errorf("after Reset: P%g = %v, fresh %v", q, got, want)
		}
	}
	if &l.counts[0] != counts || &l.overflow[0] != overflow {
		t.Error("Reset dropped the storage the first fill grew")
	}
}

func TestRate(t *testing.T) {
	if got := Rate(256*1000, 256, 1000); got != 1.0 {
		t.Errorf("Rate = %v, want 1.0 (saturated delivery)", got)
	}
	if Rate(10, 0, 5) != 0 || Rate(10, 5, 0) != 0 {
		t.Error("degenerate rates should be 0")
	}
}
