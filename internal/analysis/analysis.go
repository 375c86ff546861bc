// Package analysis provides offline analysis of simulation results:
// saturation-knee detection on rate sweeps, collapse quantification,
// and multi-seed replication with dispersion statistics — the tooling a
// study needs to turn raw sweeps into claims.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Knee summarizes where a rate-sweep curve saturates.
type Knee struct {
	// Rate is the offered load of the curve's throughput peak.
	Rate float64
	// Peak is the accepted traffic at the knee (flits/node/cycle).
	Peak float64
	// Floor is the lowest accepted traffic at any offered load at or
	// beyond the knee.
	Floor float64
	// CollapseFactor is Peak/Floor: 1 means the curve holds its peak,
	// large values mean post-saturation collapse.
	CollapseFactor float64
}

// FindKnee locates the saturation knee of a rate sweep. It returns an
// error for curves with fewer than two points.
func FindKnee(points []experiments.RatePoint) (Knee, error) {
	if len(points) < 2 {
		return Knee{}, fmt.Errorf("analysis: need at least 2 points, got %d", len(points))
	}
	k := Knee{Floor: math.Inf(1)}
	peakIdx := 0
	for i, p := range points {
		if p.Accepted > k.Peak {
			k.Peak = p.Accepted
			k.Rate = p.Rate
			peakIdx = i
		}
	}
	for _, p := range points[peakIdx:] {
		if p.Accepted < k.Floor {
			k.Floor = p.Accepted
		}
	}
	if k.Floor > 0 {
		k.CollapseFactor = k.Peak / k.Floor
	} else {
		k.CollapseFactor = math.Inf(1)
	}
	return k, nil
}

// Stat is a mean with dispersion over replicated runs.
type Stat struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	N      int
}

func newStat(xs []float64) Stat {
	s := Stat{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if s.N == 0 {
		return Stat{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += float64(d * d) // rounded: never fused
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

func (s Stat) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean, s.StdDev, s.N)
}

// Replication aggregates one configuration over several seeds.
type Replication struct {
	Accepted   Stat // flits/node/cycle
	Latency    Stat // mean network latency, cycles
	Recoveries Stat
	FullBufs   Stat
}

// Replicate runs cfg once per seed on run and aggregates the headline
// metrics. It is how the repository distinguishes real effects from
// seed noise. Results are aggregated in seed order, so the statistics
// are identical for any worker count; the zero Runner uses every CPU.
func Replicate(run experiments.Runner, cfg sim.Config, seeds []int64) (Replication, error) {
	reps, err := replicate(run, "replicate", cfg, []sim.Scheme{cfg.Scheme}, seeds)
	if err != nil {
		return Replication{}, err
	}
	return reps[0], nil
}

// CompareRow is one scheme's aggregated outcome for Compare.
type CompareRow struct {
	Name string
	Rep  Replication
}

// Compare runs several schemes on the same configuration and seeds on
// run, returning one aggregated row per scheme. The full scheme x seed
// grid is one spec, so a 4-scheme, 5-seed comparison keeps 20 workers
// busy rather than 5.
func Compare(run experiments.Runner, cfg sim.Config, schemes []sim.Scheme, seeds []int64) ([]CompareRow, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("analysis: need at least one scheme")
	}
	reps, err := replicate(run, "compare", cfg, schemes, seeds)
	if err != nil {
		return nil, err
	}
	rows := make([]CompareRow, len(schemes))
	for i, sch := range schemes {
		rows[i] = CompareRow{Name: string(sch.Kind), Rep: reps[i]}
		if sch.Kind == sim.StaticGlobal {
			rows[i].Name = fmt.Sprintf("static(%g)", sch.StaticThreshold)
		}
	}
	return rows, nil
}

// replicate runs cfg under every scheme once per seed as one grid on
// run.RunSpec, so the runner's context and result cache apply as for
// any experiment, and aggregates each scheme's results in seed order.
func replicate(run experiments.Runner, name string, cfg sim.Config, schemes []sim.Scheme, seeds []int64) ([]Replication, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("analysis: need at least one seed")
	}
	spec := experiments.NewSpec(name, "")
	for _, sch := range schemes {
		g := experiments.Group{Name: string(sch.Kind)}
		for _, seed := range seeds {
			c := cfg
			c.Scheme, c.Seed = sch, seed
			g.Points = append(g.Points, experiments.Point{
				Label: fmt.Sprintf("scheme %s seed %d", sch.Kind, seed), Config: c})
		}
		spec.Groups = append(spec.Groups, g)
	}
	grouped, err := run.RunSpec(spec)
	if err != nil {
		return nil, err
	}
	reps := make([]Replication, len(grouped))
	for i, results := range grouped {
		var acc, lat, rec, full []float64
		for _, r := range results {
			acc = append(acc, r.AcceptedFlits)
			lat = append(lat, r.AvgNetworkLatency)
			rec = append(rec, float64(r.Recoveries))
			full = append(full, r.AvgFullBuffers)
		}
		reps[i] = Replication{
			Accepted:   newStat(acc),
			Latency:    newStat(lat),
			Recoveries: newStat(rec),
			FullBufs:   newStat(full),
		}
	}
	return reps, nil
}

// Heatmap renders per-node values of a k x k network as an ASCII
// intensity grid (row-major, node id = x + k*y, y growing downward).
// Values are normalized to the maximum; an all-zero grid renders as
// spaces.
func Heatmap(values []float64, k int) string {
	const ramp = " .:-=+*#%@"
	if k <= 0 || len(values) != k*k {
		return ""
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var b []byte
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			v := values[x+k*y]
			idx := 0
			if maxV > 0 {
				idx = int(v / maxV * float64(len(ramp)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b = append(b, ramp[idx], ramp[idx])
		}
		b = append(b, '\n')
	}
	return string(b)
}
