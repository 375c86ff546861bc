package experiments

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// registerStudy registers a comparison study: a grid of the compared
// configurations, each labeled with its row name, reported as one
// (config, accepted, latency) table.
func registerStudy(name, title, about string, groups func(s Scale) []Group) {
	register(Entry{
		Name: name, Title: title, About: about,
		Spec: func(s Scale) *Spec {
			spec := NewSpec(name, title)
			spec.Groups = groups(s)
			return spec
		},
		Report: reportAblation(name + ": " + title),
	})
}

// variants builds a one-group grid with one point per value: the
// paper's network at scale s and offered load rate, adjusted by set,
// which returns the point's label.
func variants[T any](s Scale, rate float64, values []T, set func(cfg *sim.Config, v T) string) []Group {
	points := make([]Point, 0, len(values))
	for _, v := range values {
		cfg := baseConfig(s)
		cfg.Rate = rate
		label := set(&cfg, v)
		points = append(points, Point{Label: label, Config: cfg})
	}
	return []Group{{Points: points}}
}

func init() {
	// The paper credits linear extrapolation with 3-5% throughput near
	// saturation.
	registerStudy("ext1", "estimator ablation (tune @ saturation)",
		"Linear extrapolation vs last-value estimation of the global "+
			"full-buffer count (the paper credits extrapolation with 3-5%).",
		func(s Scale) []Group {
			return variants(s, 0.03, []core.EstimatorKind{"", core.LastValueEstimator},
				func(cfg *sim.Config, est core.EstimatorKind) string {
					cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned, Estimator: est}
					return cmp.Or(est, core.LinearEstimator) // unset is linear
				})
		})
	// The paper found 32-192 cycles performs within a few percent.
	registerStudy("ext2", "tuning period sensitivity",
		"Sweeps the tuning period 32-192 cycles (the paper uses 96).",
		func(s Scale) []Group {
			return variants(s, 0.03, []int64{32, 64, 0, 160, 192},
				func(cfg *sim.Config, period int64) string {
					cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned, TuningPeriod: period}
					return fmt.Sprintf("period=%d", cmp.Or(period, core.DefaultTuningPeriod(cfg.GatherDuration()))) // unset is 3g
				})
		})
	// The paper found steps of 1-4% of all buffers perform within ~4%,
	// slightly better with decrement > increment.
	registerStudy("ext3", "increment/decrement sensitivity",
		"Sweeps the tuner's step sizes around the paper's 1%/4% choice.",
		func(s Scale) []Group {
			steps := []struct{ inc, dec float64 }{
				{0.01, 0.01}, {0.01, 0.04}, {0.04, 0.01}, {0.04, 0.04}, {0.02, 0.02},
			}
			return variants(s, 0.03, steps, func(cfg *sim.Config, st struct{ inc, dec float64 }) string {
				tc := core.DefaultTunerConfig(cfg.TotalBuffers())
				cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
				if st.inc != tc.IncrementFraction || st.dec != tc.DecrementFraction {
					tc.IncrementFraction, tc.DecrementFraction = st.inc, st.dec
					cfg.Scheme.Tuner = &tc
				}
				return fmt.Sprintf("inc=%g%%,dec=%g%%", st.inc*100, st.dec*100)
			})
		})
	// The technical report's narrow side-band quantizes the transported
	// counts.
	registerStudy("ext4", "narrow side-band",
		"Full-precision vs 9-bit quantized side-band counts.",
		func(s Scale) []Group {
			return variants(s, 0.03, []int{0, 9}, func(cfg *sim.Config, bits int) string {
				cfg.SidebandBits = bits
				cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
				if bits > 0 {
					return fmt.Sprintf("%d-bit", bits)
				}
				return "full-precision"
			})
		})
	// Larger h means a longer gather duration, staler global information
	// and a slower control loop (the technical report quantifies this;
	// the paper assumes h = 2 throughout).
	registerStudy("ext5", "side-band hop delay",
		"Sweeps the side-band hop delay h (gather duration g = (k/2)*h*n): "+
			"staler global information slows the control loop.",
		func(s Scale) []Group {
			return variants(s, 0.03, []int{1, 2, 4, 8}, func(cfg *sim.Config, h int) string {
				cfg.SidebandHopDelay = h
				cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
				return fmt.Sprintf("h=%d (g=%d)", h, cfg.GatherDuration())
			})
		})
	registerStudy("ext6", "consumption channels",
		"Sweeps delivery channels per node on the uncontrolled network "+
			"(Basak & Panda: consumption bandwidth bounds saturation).",
		func(s Scale) []Group {
			return variants(s, 0.03, []int{1, 2, 4}, func(cfg *sim.Config, c int) string {
				cfg.DeliveryChannels = c
				return fmt.Sprintf("consumption=%d", c)
			})
		})
	registerStudy("ext7", "selection policy",
		"Compares adaptive-routing port selection policies near saturation.",
		func(s Scale) []Group {
			return variants(s, 0.02, []router.SelectionPolicy{router.RotatePorts, router.FirstPort, router.MostFreeVCs},
				func(cfg *sim.Config, pol router.SelectionPolicy) string {
					cfg.Selection = pol
					return "selection=" + pol.String()
				})
		})
	registerStudy("ext8", "gather mechanism",
		"Dedicated side-band vs meta-packets vs piggybacking as the "+
			"controller's information substrate (Section 3.1 alternatives).",
		func(s Scale) []Group {
			return variants(s, 0.03, []sideband.Mechanism{sideband.Dedicated, sideband.MetaPacket, sideband.Piggyback},
				func(cfg *sim.Config, m sideband.Mechanism) string {
					cfg.SidebandMechanism = m
					cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
					return "gather=" + m.String()
				})
		})
	// The technical report's steady-load study; the HPCA paper prints
	// only uniform random in full.
	register(Entry{
		Name: "ext9", Title: "all patterns, base vs tune (recovery)",
		About: "Base-vs-tune rate curves for all four of the paper's " +
			"communication patterns (the technical report's steady-load study).",
		Spec: func(s Scale) *Spec {
			spec := NewSpec("ext9", "all patterns, base vs tune (recovery)")
			for _, pat := range []traffic.PatternKind{
				traffic.UniformRandom, traffic.BitReversal, traffic.PerfectShuffle, traffic.Butterfly,
			} {
				for _, sch := range []sim.Scheme{{Kind: sim.Base}, {Kind: sim.SelfTuned}} {
					cfg := baseConfig(s)
					cfg.Pattern = pat
					cfg.Scheme = sch
					name := string(pat) + "/" + string(sch.Kind)
					spec.Groups = append(spec.Groups, rateGroup(name, name+" ", cfg))
				}
			}
			return spec
		},
		Report: reportCurves("ext9: all patterns, base vs tune (recovery)", "ext9.csv"),
	})
	// The paper argues its controller applies to cut-through networks
	// as well; cut-through contains blocked packets inside single
	// routers, so tree saturation is milder but still present once
	// router buffers fill.
	registerStudy("ext10", "wormhole vs cut-through",
		"Base and Tune on wormhole vs virtual cut-through switching "+
			"(whole-packet buffers) at overload.",
		func(s Scale) []Group {
			type variant struct {
				name      string
				switching router.Switching
				scheme    sim.Scheme
			}
			return variants(s, 0.04, []variant{
				{"wormhole/base", router.Wormhole, sim.Scheme{Kind: sim.Base}},
				{"wormhole/tune", router.Wormhole, sim.Scheme{Kind: sim.SelfTuned}},
				{"cutthrough/base", router.CutThrough, sim.Scheme{Kind: sim.Base}},
				{"cutthrough/tune", router.CutThrough, sim.Scheme{Kind: sim.SelfTuned}},
			}, func(cfg *sim.Config, v variant) string {
				cfg.Switching = v.switching
				cfg.Scheme = v.scheme
				if v.switching == router.CutThrough {
					cfg.BufDepth = cfg.PacketLength // whole-packet buffers
				}
				return v.name
			})
		})
	// ALO is Baydal et al.'s baseline, busy-VC counting Lopez et al.'s.
	registerStudy("ext11", "local baselines vs tune",
		"Both cited local baselines — busy-VC counting and ALO — against "+
			"the self-tuned global scheme at overload.",
		func(s Scale) []Group {
			return variants(s, 0.04, []sim.SchemeKind{sim.Base, sim.BusyVC, sim.ALO, sim.SelfTuned},
				func(cfg *sim.Config, kind sim.SchemeKind) string {
					cfg.Scheme = sim.Scheme{Kind: kind}
					return string(kind)
				})
		})
	// The k-ary n-cube framing implies the controller generalizes across
	// dimensionality. The tuning period defaults to three gather
	// durations of the 3-cube's side-band (g = 4*2*3 = 24 cycles).
	registerStudy("ext12", "8-ary 3-cube",
		"Base vs Tune on an 8-ary 3-cube (512 nodes): the controller "+
			"generalizes across network dimensionality.",
		func(s Scale) []Group {
			return variants(s, 0.05, []sim.SchemeKind{sim.Base, sim.SelfTuned},
				func(cfg *sim.Config, kind sim.SchemeKind) string {
					cfg.K, cfg.N = 8, 3
					cfg.Scheme = sim.Scheme{Kind: kind}
					return "8-ary 3-cube/" + string(kind)
				})
		})
	// AIMD reacts per source to DECbit marks from its own packets, so it
	// needs no side-band at all; the comparison shows what that
	// end-to-end feedback loop costs (and buys) relative to global
	// full-buffer tuning under each traffic shape. One group per
	// workload, labeled "<workload>/<scheme>".
	registerStudy("ext13", "controller zoo: aimd vs tune vs alo",
		"The AIMD window controller (per-source end-to-end feedback from "+
			"DECbit marks, no side-band) against the self-tuned global scheme "+
			"and the ALO local baseline, on uniform random, butterfly and the "+
			"Figure 6 bursty workload.",
		func(s Scale) []Group {
			schemes := []sim.Scheme{{Kind: sim.AIMD}, {Kind: sim.SelfTuned}, {Kind: sim.ALO}}
			var groups []Group
			for _, pat := range []traffic.PatternKind{traffic.UniformRandom, traffic.Butterfly} {
				g := Group{Name: string(pat)}
				for _, sch := range schemes {
					cfg := baseConfig(s)
					cfg.Pattern = pat
					cfg.Rate = 0.04
					cfg.Scheme = sch
					g.Points = append(g.Points, Point{Label: string(pat) + "/" + string(sch.Kind), Config: cfg})
				}
				groups = append(groups, g)
			}
			sched := burstySchedule(s)
			g := Group{Name: "bursty"}
			for _, sch := range schemes {
				cfg := baseConfig(s)
				cfg.ScheduleSpec = sched
				cfg.WarmupCycles = 0
				cfg.MeasureCycles = sched.TotalDuration()
				cfg.Scheme = sch
				g.Points = append(g.Points, Point{Label: "bursty/" + string(sch.Kind), Config: cfg})
			}
			return append(groups, g)
		})
	// Unlike ext5, where delay only stales the tuner's global view, the
	// hop delay here sets the latency of every congestion notification
	// and, through the staleness default of two gather durations, how
	// long a notified source stays gated.
	registerStudy("ext14", "notification hop-delay sensitivity",
		"Sweeps the side-band hop delay under the notification-based "+
			"controller: the delay sets both notification latency and the "+
			"staleness window gating sources, so it directly scales the "+
			"feedback loop the controller closes.",
		func(s Scale) []Group {
			return variants(s, 0.04, []int{1, 2, 4, 8}, func(cfg *sim.Config, h int) string {
				cfg.SidebandHopDelay = h
				cfg.Scheme = sim.Scheme{Kind: sim.Notify}
				return fmt.Sprintf("h=%d (g=%d)", h, cfg.GatherDuration())
			})
		})
}
