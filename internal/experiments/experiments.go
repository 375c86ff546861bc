// Package experiments holds the paper's evaluation (Section 5) as a
// registry of named experiments: one entry per table, figure and
// extension study. Each entry is a declarative Spec builder — a
// serializable grid of (label, sim.Config) points — plus one formatter
// that prints the rows the paper reports and writes them as CSV.
//
// Entry.Run is the only execution path: it runs the entry's grid once
// through Runner.RunSpec and hands the grouped results to the
// formatter. The grid that runs is therefore exactly the grid "stcc
// emit-spec" prints, the result cache keys and stcc-serve fingerprints.
// Results are deterministic for a given Scale and seed, regardless of
// how many Runner workers execute the grid.
package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Scale controls how long each simulation runs. Figure shapes are stable
// at Quick scale; Paper scale matches the published 600k-cycle runs.
type Scale struct {
	Warmup  int64
	Measure int64
	// BurstLow/BurstHigh are the bursty-phase durations for Figure 6/7.
	BurstLow  int64
	BurstHigh int64
}

// Predefined scales.
var (
	// Quick keeps a full figure regeneration within minutes; shapes
	// (who wins, where the knees fall) match Paper scale.
	Quick = Scale{Warmup: 8_000, Measure: 24_000, BurstLow: 8_000, BurstHigh: 12_000}
	// Paper is the published methodology: 600k cycles, 100k warm-up,
	// 50k/75k bursty phases.
	Paper = Scale{Warmup: 100_000, Measure: 500_000, BurstLow: 50_000, BurstHigh: 75_000}
)

// ParseScale maps a scale name, "quick" or "paper", to its run length.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "paper":
		return Paper, nil
	default:
		return Scale{}, fmt.Errorf("unknown -scale %q (want quick or paper)", name)
	}
}

// DefaultRates is the packet-injection-rate sweep of the rate-axis
// figures (packets/node/cycle), and the default of "stcc sweep -rates".
// The knee of the paper's 16-ary 2-cube sits near 0.02-0.025.
var DefaultRates = []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.06}

// deadlockModes is the order in which fig3 and fig7 build and report
// their per-mode tables.
var deadlockModes = []router.DeadlockMode{router.Recovery, router.Avoidance}

// paperSchemes are the three schemes Figures 3 and 7 compare.
var paperSchemes = []sim.Scheme{{Kind: sim.Base}, {Kind: sim.ALO}, {Kind: sim.SelfTuned}}

// baseConfig returns the paper's network with the given scale applied.
func baseConfig(s Scale) sim.Config {
	cfg := sim.NewConfig()
	cfg.WarmupCycles = s.Warmup
	cfg.MeasureCycles = s.Measure
	return cfg
}

// burstySchedule is the declarative bursty workload of Figure 6 at the
// given scale: alternating low-load uniform-random phases and high-load
// bursts whose pattern changes each burst.
func burstySchedule(s Scale) *traffic.ScheduleSpec {
	return traffic.PaperBurstySpec(traffic.PaperBurstyOptions{
		LowDuration: s.BurstLow, HighDuration: s.BurstHigh,
	})
}

// RatePoint is one point of a rate-sweep curve.
type RatePoint struct {
	Rate     float64 // offered packets/node/cycle
	Accepted float64 // delivered flits/node/cycle
	Latency  float64 // mean network latency, cycles
	Recov    int64   // deadlock recoveries
	Full     float64 // mean full buffers
}

// Curve is a named rate sweep.
type Curve struct {
	Name   string
	Points []RatePoint
}

// GroupCurve maps one rate-sweep group and its results to a curve named
// after the group. Each point's rate is read from its configuration.
func GroupCurve(g Group, results []sim.Result) Curve {
	c := Curve{Name: g.Name, Points: make([]RatePoint, len(g.Points))}
	for i, p := range g.Points {
		r := results[i]
		c.Points[i] = RatePoint{Rate: p.Config.Rate, Accepted: r.AcceptedFlits,
			Latency: r.AvgNetworkLatency, Recov: r.Recoveries, Full: r.AvgFullBuffers}
	}
	return c
}

// rateGroup builds one curve's worth of spec points: cfg at every rate
// of DefaultRates, labeled "<label prefix>rate <rate>".
func rateGroup(name, labelPrefix string, cfg sim.Config) Group {
	g := Group{Name: name}
	for _, rate := range DefaultRates {
		cfg.Rate = rate
		g.Points = append(g.Points, Point{Label: fmt.Sprintf("%srate %g", labelPrefix, rate), Config: cfg})
	}
	return g
}

// modeGroups selects the groups of a two-mode grid (fig3, fig7) whose
// points run under the given deadlock mode, with their results.
func modeGroups(spec *Spec, grouped [][]sim.Result, mode router.DeadlockMode) ([]Group, [][]sim.Result) {
	var groups []Group
	var results [][]sim.Result
	for gi, g := range spec.Groups {
		if g.Points[0].Config.Mode == mode {
			groups = append(groups, g)
			results = append(results, grouped[gi])
		}
	}
	return groups, results
}

// fig4Regen is Figure 4's fixed packet regeneration interval. The paper
// uses 100 cycles, which saturates flexsim's network; this simulator
// saturates at roughly twice that load, so 50 cycles (0.02
// packets/node/cycle) reproduces the same operating point.
const fig4Regen = 50

// tuningDecision drives the real tuner through one cell of Table 1: a
// previous-period baseline of 1000, then a period whose bandwidth either
// dropped by more than 25% or held, while throttling or not.
func tuningDecision(drop, throttling bool) core.Decision {
	cfg := core.DefaultTunerConfig(3072)
	cfg.AvoidLocalMaxima = false // Table 1 is the pure hill climb
	tu := core.MustNewTuner(cfg)
	tu.OnPeriod(1000, 100, false)
	tput := 1000.0
	if drop {
		tput = 600 // < 75% of the previous period
	}
	tu.OnPeriod(tput, 100, throttling)
	return tu.LastDecision()
}

func init() {
	register(Entry{
		Name: "tab1", Title: "tuning decision table",
		About: "Drives the real tuner through all four (drop, throttling) cells " +
			"and reports its decisions; reproduces Table 1 exactly. Analytic — no simulations.",
		Spec: emptySpec("tab1", "tuning decision table"),
		Report: func(ctx RunContext, _ *Spec, _ [][]sim.Result) error {
			fmt.Fprintf(ctx.Out, "table1: tuning decision table\n")
			fmt.Fprintf(ctx.Out, "%-22s %-22s %s\n", "drop_in_bandwidth>25%", "currently_throttling", "decision")
			for _, drop := range []bool{true, false} {
				for _, throttling := range []bool{true, false} {
					fmt.Fprintf(ctx.Out, "%-22v %-22v %s\n", drop, throttling, tuningDecision(drop, throttling))
				}
			}
			return nil
		},
	})
	register(Entry{
		Name: "fig1", Title: "saturation collapse (base, recovery)",
		About: "Rate sweeps of the uncontrolled network for uniform random and " +
			"butterfly: delivered bandwidth collapses past the pattern-dependent " +
			"saturation point.",
		Spec: func(s Scale) *Spec {
			spec := NewSpec("fig1", "saturation collapse (base, recovery)")
			for _, pat := range []traffic.PatternKind{traffic.UniformRandom, traffic.Butterfly} {
				cfg := baseConfig(s)
				cfg.Pattern = pat
				spec.Groups = append(spec.Groups, rateGroup(string(pat), string(pat)+" ", cfg))
			}
			return spec
		},
		Report: reportCurves("fig1: saturation collapse (base, recovery)", "fig1.csv"),
	})
	register(Entry{
		Name: "fig2", Title: "throughput vs full buffers (base, recovery)",
		About: "Sweeps offered load and records where each run settles in " +
			"(full buffers, throughput) space: the hill the self-tuner climbs.",
		Spec: func(s Scale) *Spec {
			spec := NewSpec("fig2", "throughput vs full buffers (base, recovery)")
			spec.Groups = append(spec.Groups, rateGroup("", "", baseConfig(s)))
			return spec
		},
		Report: func(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
			fmt.Fprintf(ctx.Out, "fig2: throughput vs full buffers (base, recovery)\n")
			fmt.Fprintf(ctx.Out, "%10s %14s %14s\n", "rate", "full_buffers", "throughput")
			rows := [][]string{{"rate", "mean_full_buffers", "throughput_flits_per_node_cycle"}}
			for i, p := range spec.Groups[0].Points {
				r := grouped[0][i]
				fmt.Fprintf(ctx.Out, "%10.4f %14.1f %14.4f\n", p.Config.Rate, r.AvgFullBuffers, r.AcceptedFlits)
				rows = append(rows, []string{ftoa(p.Config.Rate), ftoa(r.AvgFullBuffers), ftoa(r.AcceptedFlits)})
			}
			return ctx.csv("fig2.csv", rows)
		},
	})
	register(Entry{
		Name: "fig3", Title: "overall performance: base vs ALO vs tune, both deadlock modes",
		About: "Throughput and latency vs offered load for Base, ALO and Tune, " +
			"under deadlock recovery and deadlock avoidance.",
		// Both deadlock modes share one grid. Each group name carries its
		// mode's table title ("overall performance, <mode>: <scheme>");
		// names feed the spec fingerprint, so fig7 keeps the same form.
		Spec: func(s Scale) *Spec {
			spec := NewSpec("fig3", "overall performance")
			for _, mode := range deadlockModes {
				for _, sch := range paperSchemes {
					cfg := baseConfig(s)
					cfg.Mode = mode
					cfg.Scheme = sch
					name := "overall performance, " + mode.String() + ": " + string(sch.Kind)
					spec.Groups = append(spec.Groups, rateGroup(name, fmt.Sprintf("%s/%v ", sch.Kind, mode), cfg))
				}
			}
			return spec
		},
		Report: func(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
			for _, mode := range deadlockModes {
				groups, results := modeGroups(spec, grouped, mode)
				curves := make([]Curve, len(groups))
				for i, g := range groups {
					curves[i] = GroupCurve(g, results[i])
					curves[i].Name = string(g.Points[0].Config.Scheme.Kind)
				}
				if err := writeCurves(ctx, "fig3: overall performance, "+mode.String(),
					"fig3_"+mode.String()+".csv", curves); err != nil {
					return err
				}
			}
			return nil
		},
	})
	register(Entry{
		Name: "fig4", Title: "self-tuning operation: threshold and throughput vs time",
		About: "Hill climbing only vs hill climbing plus local-maximum avoidance " +
			"on the avoidance configuration under a fixed regeneration interval; " +
			"the avoidance mechanism's sawtooth sustains throughput.",
		Spec: func(s Scale) *Spec {
			spec := NewSpec("fig4", "self-tuning operation (avoidance, periodic regeneration)")
			var points []Point
			for _, kind := range []sim.SchemeKind{sim.HillClimbOnly, sim.SelfTuned} {
				cfg := baseConfig(s)
				cfg.Mode = router.Avoidance
				cfg.ScheduleSpec = traffic.SteadySpec(traffic.UniformRandom,
					traffic.ProcessSpec{Kind: traffic.PeriodicProcess, Interval: fig4Regen})
				cfg.Scheme = sim.Scheme{Kind: kind, KeepTrace: true}
				points = append(points, Point{Label: string(kind), Config: cfg})
			}
			spec.AddGroup("", points...)
			return spec
		},
		Report: reportFig4,
	})
	// The paper contrasts thresholds 250 (8% occupancy) and 50 (1.6%).
	// This simulator's saturation occupancies sit higher than flexsim's,
	// so the equivalent demonstration pair here is 500 (16%) —
	// near-optimal for uniform random, degraded for butterfly — and 50,
	// which over-throttles random but suits butterfly. Both pairs run so
	// the paper's original numbers remain visible.
	register(Entry{
		Name: "fig5", Title: "static thresholds vs self-tuning (recovery)",
		About: "Static global thresholds 500/250/50 against the self-tuned " +
			"controller on uniform random and butterfly: no single static " +
			"threshold suits both patterns.",
		Spec: func(s Scale) *Spec {
			schemes := []struct {
				name string
				sch  sim.Scheme
			}{
				{"static500", sim.Scheme{Kind: sim.StaticGlobal, StaticThreshold: 500}},
				{"static250", sim.Scheme{Kind: sim.StaticGlobal, StaticThreshold: 250}},
				{"static50", sim.Scheme{Kind: sim.StaticGlobal, StaticThreshold: 50}},
				{"tune", sim.Scheme{Kind: sim.SelfTuned}},
			}
			spec := NewSpec("fig5", "static thresholds vs self-tuning (recovery)")
			for _, pat := range []traffic.PatternKind{traffic.UniformRandom, traffic.Butterfly} {
				for _, sc := range schemes {
					cfg := baseConfig(s)
					cfg.Pattern = pat
					cfg.Scheme = sc.sch
					name := string(pat) + "/" + sc.name
					spec.Groups = append(spec.Groups, rateGroup(name, name+" ", cfg))
				}
			}
			return spec
		},
		Report: reportCurves("fig5: static thresholds vs self-tuning (recovery)", "fig5.csv"),
	})
	register(Entry{
		Name: "fig6", Title: "offered bursty load schedule",
		About: "Prints the alternating low-load / high-burst workload (random, " +
			"bit-reversal, shuffle, butterfly bursts) that Figure 7 consumes. " +
			"Analytic — no simulations.",
		Spec: emptySpec("fig6", "offered bursty load"),
		Report: func(ctx RunContext, _ *Spec, _ [][]sim.Result) error {
			sched, err := burstySchedule(ctx.Scale).Build(256)
			if err != nil {
				return err
			}
			fmt.Fprintf(ctx.Out, "fig6: offered bursty load\n")
			fmt.Fprintf(ctx.Out, "%12s %12s %-14s %12s\n", "start", "end", "pattern", "rate")
			var at int64
			for _, ph := range sched.Phases {
				fmt.Fprintf(ctx.Out, "%12d %12d %-14s %12.5f\n",
					at, at+ph.Duration, ph.Pattern.Name(), ph.Process.Rate())
				at += ph.Duration
			}
			return nil
		},
	})
	register(Entry{
		Name: "fig7", Title: "performance under bursty load, both deadlock modes",
		About: "Base, ALO and Tune under the Figure 6 bursty workload: Tune " +
			"delivers steady bandwidth across bursts with the lowest latency.",
		Spec: func(s Scale) *Spec {
			// Every point carries the Figure 6 workload as a ScheduleSpec, so
			// the grid serializes and every engine compiles an identical
			// schedule.
			sched := burstySchedule(s)
			spec := NewSpec("fig7", "performance under bursty load")
			for _, mode := range deadlockModes {
				var points []Point
				for _, sch := range paperSchemes {
					cfg := baseConfig(s)
					cfg.Mode = mode
					cfg.ScheduleSpec = sched
					cfg.WarmupCycles = 0
					cfg.MeasureCycles = sched.TotalDuration()
					cfg.SampleInterval = 1024
					cfg.Scheme = sch
					points = append(points, Point{Label: fmt.Sprintf("%s/%v", sch.Kind, mode), Config: cfg})
				}
				spec.AddGroup("performance under bursty load, "+mode.String()+": ", points...)
			}
			return spec
		},
		Report: reportFig7,
	})
}

// reportFig4 prints one summary line per self-tuning trace; the CSV has
// every tuning period, with throughput normalized to flits/node/cycle.
func reportFig4(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
	rows := [][]string{{"scheme", "cycle", "threshold_buffers", "throughput_flits_per_node_cycle"}}
	for i, p := range spec.Groups[0].Points {
		topo, err := p.Config.Topology()
		if err != nil {
			return err
		}
		nodes := float64(topo.Nodes())
		period := float64(p.Config.Scheme.TuningPeriod)
		if period == 0 {
			period = float64(3 * p.Config.GatherDuration())
		}
		trace := grouped[0][i].ThresholdTrace
		fmt.Fprintf(ctx.Out, "fig4 trace %s: %d periods, final threshold %.1f\n",
			p.Label, len(trace), trace[len(trace)-1].Threshold)
		for _, tp := range trace {
			rows = append(rows, []string{p.Label, strconv.FormatInt(tp.Cycle, 10),
				ftoa(tp.Threshold), ftoa(tp.Throughput / nodes / period)})
		}
	}
	return ctx.csv("fig4.csv", rows)
}

// reportFig7 prints, per deadlock mode, each scheme's bursty-load
// latency averages (the numbers the paper quotes beside Figure 7) and
// writes its delivered-throughput time series.
func reportFig7(ctx RunContext, spec *Spec, grouped [][]sim.Result) error {
	for _, mode := range deadlockModes {
		fmt.Fprintf(ctx.Out, "fig7 (%s):\n", mode)
		rows := [][]string{{"scheme", "cycle", "throughput_flits_per_node_cycle"}}
		groups, results := modeGroups(spec, grouped, mode)
		for gi, g := range groups {
			for pi, p := range g.Points {
				r := results[gi][pi]
				scheme := string(p.Config.Scheme.Kind)
				fmt.Fprintf(ctx.Out, "fig7 %s: avg network latency %.0f cycles, avg total latency %.0f cycles, %d samples\n",
					scheme, r.AvgNetworkLatency, r.AvgTotalLatency, len(r.Throughput.Values))
				for j, v := range r.Throughput.Values {
					rows = append(rows, []string{scheme, strconv.FormatInt(r.Throughput.CycleAt(j), 10), ftoa(v)})
				}
			}
		}
		if err := ctx.csv("fig7_"+mode.String()+".csv", rows); err != nil {
			return err
		}
	}
	return nil
}
