package analysis

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

func pts(acc ...float64) []experiments.RatePoint {
	out := make([]experiments.RatePoint, len(acc))
	for i, a := range acc {
		out[i] = experiments.RatePoint{Rate: 0.01 * float64(i+1), Accepted: a}
	}
	return out
}

func TestFindKneeCollapse(t *testing.T) {
	k, err := FindKnee(pts(0.1, 0.2, 0.38, 0.2, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if k.Peak != 0.38 || math.Abs(k.Rate-0.03) > 1e-12 {
		t.Errorf("knee = %+v", k)
	}
	if k.Floor != 0.05 {
		t.Errorf("floor = %v", k.Floor)
	}
	if math.Abs(k.CollapseFactor-0.38/0.05) > 1e-9 {
		t.Errorf("collapse = %v", k.CollapseFactor)
	}
}

func TestFindKneeStableCurve(t *testing.T) {
	k, err := FindKnee(pts(0.1, 0.2, 0.38, 0.38, 0.375))
	if err != nil {
		t.Fatal(err)
	}
	if k.CollapseFactor > 1.02 {
		t.Errorf("stable curve reported collapse %v", k.CollapseFactor)
	}
}

func TestFindKneePeakAtEnd(t *testing.T) {
	k, err := FindKnee(pts(0.1, 0.2, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if k.Peak != 0.3 || k.Floor != 0.3 || k.CollapseFactor != 1 {
		t.Errorf("knee = %+v", k)
	}
}

func TestFindKneeZeroFloor(t *testing.T) {
	k, err := FindKnee(pts(0.3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(k.CollapseFactor, 1) {
		t.Errorf("collapse with zero floor = %v", k.CollapseFactor)
	}
}

func TestFindKneeTooFewPoints(t *testing.T) {
	if _, err := FindKnee(pts(0.1)); err == nil {
		t.Error("single point accepted")
	}
}

func TestStat(t *testing.T) {
	s := newStat([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("stat = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
	if newStat(nil).N != 0 {
		t.Error("empty stat")
	}
	if newStat([]float64{5}).StdDev != 0 {
		t.Error("single-sample stddev should be 0")
	}
	if s.String() == "" {
		t.Error("stat string")
	}
}

func smallCfg() sim.Config {
	cfg := sim.NewConfig()
	cfg.K = 4
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 1_500
	cfg.Rate = 0.01
	return cfg
}

func TestReplicate(t *testing.T) {
	rep, err := Replicate(experiments.Runner{}, smallCfg(), []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted.N != 3 {
		t.Errorf("n = %d", rep.Accepted.N)
	}
	if rep.Accepted.Mean <= 0 {
		t.Error("no throughput measured")
	}
	if rep.Accepted.Min > rep.Accepted.Mean || rep.Accepted.Max < rep.Accepted.Mean {
		t.Error("min/max inconsistent")
	}
}

func TestReplicateNeedsSeeds(t *testing.T) {
	if _, err := Replicate(experiments.Runner{}, smallCfg(), nil); err == nil {
		t.Error("no seeds accepted")
	}
}

func TestReplicateIsDeterministicPerSeedSet(t *testing.T) {
	a, err := Replicate(experiments.Runner{}, smallCfg(), []int64{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replicate(experiments.Runner{}, smallCfg(), []int64{7, 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Accepted != b.Accepted || a.Latency != b.Latency {
		t.Error("replication not deterministic")
	}
}

func TestCompare(t *testing.T) {
	rows, err := Compare(experiments.Runner{}, smallCfg(), []sim.Scheme{
		{Kind: sim.Base},
		{Kind: sim.StaticGlobal, StaticThreshold: 40},
	}, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "base" || rows[1].Name != "static(40)" {
		t.Errorf("rows = %+v", rows)
	}
}

func TestCompareNeedsSchemes(t *testing.T) {
	if _, err := Compare(experiments.Runner{}, smallCfg(), nil, []int64{1}); err == nil {
		t.Error("no schemes accepted")
	}
}

func TestCompareBadConfig(t *testing.T) {
	cfg := smallCfg()
	cfg.VCs = 0
	if _, err := Compare(experiments.Runner{}, cfg, []sim.Scheme{{Kind: sim.Base}}, []int64{1}); err == nil {
		t.Error("bad config accepted")
	}
}

// TestCompareMatchesDirectRuns pins that running the grid as one spec
// on Runner.RunSpec leaves every statistic as a plain per-seed sim.Run
// aggregation computes it.
func TestCompareMatchesDirectRuns(t *testing.T) {
	schemes := []sim.Scheme{{Kind: sim.Base}, {Kind: sim.SelfTuned}}
	seeds := []int64{1, 2}
	rows, err := Compare(experiments.Runner{Workers: 2}, smallCfg(), schemes, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, sch := range schemes {
		var acc, lat, rec, full []float64
		for _, seed := range seeds {
			c := smallCfg()
			c.Scheme, c.Seed = sch, seed
			r, err := sim.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			acc = append(acc, r.AcceptedFlits)
			lat = append(lat, r.AvgNetworkLatency)
			rec = append(rec, float64(r.Recoveries))
			full = append(full, r.AvgFullBuffers)
		}
		want := Replication{newStat(acc), newStat(lat), newStat(rec), newStat(full)}
		if rows[i].Rep != want {
			t.Errorf("%s: compare row %+v, direct runs %+v", sch.Kind, rows[i].Rep, want)
		}
	}
	rep, err := Replicate(experiments.Runner{Workers: 2}, smallCfg(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep != rows[0].Rep {
		t.Errorf("replicate %+v differs from compare's base row %+v", rep, rows[0].Rep)
	}
}

// countingStore counts the points a runner starts: with a cache
// attached, Get is the first thing a runner does with each point. It
// always misses and discards what is put, so counted points run.
type countingStore struct{ gets atomic.Int64 }

func (c *countingStore) Get(string) (sim.Result, bool, error) {
	c.gets.Add(1)
	return sim.Result{}, false, nil
}

func (c *countingStore) Put(string, sim.Result) error { return nil }

func (c *countingStore) Len() (int, error) { return 0, nil }

// TestCompareHonorsCanceledContext requires an already-canceled runner
// context to stop Compare and Replicate before any point is dispatched.
func TestCompareHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	store := &countingStore{}
	run := experiments.Runner{Workers: 2, Ctx: ctx, Cache: store}
	if _, err := Compare(run, smallCfg(), []sim.Scheme{{Kind: sim.Base}}, []int64{1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("compare: err = %v, want context.Canceled", err)
	}
	if _, err := Replicate(run, smallCfg(), []int64{1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("replicate: err = %v, want context.Canceled", err)
	}
	if n := store.gets.Load(); n != 0 {
		t.Errorf("%d points dispatched under a canceled context", n)
	}
}

func TestHeatmap(t *testing.T) {
	vals := []float64{0, 1, 2, 4}
	hm := Heatmap(vals, 2)
	lines := len(hm) // 2 rows x (2*2 chars + newline)
	if lines != 2*(2*2+1) {
		t.Fatalf("heatmap size = %d: %q", lines, hm)
	}
	if hm[len(hm)-3] != '@' { // hottest cell bottom-right
		t.Errorf("hottest cell = %q", hm)
	}
	if Heatmap(vals, 3) != "" {
		t.Error("size mismatch should return empty")
	}
	if Heatmap(nil, 0) != "" {
		t.Error("degenerate heatmap")
	}
	allZero := Heatmap([]float64{0, 0, 0, 0}, 2)
	for _, c := range allZero {
		if c != ' ' && c != '\n' {
			t.Errorf("zero grid rendered %q", allZero)
		}
	}
}
