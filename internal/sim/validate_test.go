package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/traffic"
)

// TestValidateRejections drives Config.Validate through every rejection
// path, one table row per invalid field. Each row mutates the paper's
// known-good default, so a row failing to error means that field has
// lost its validation.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*Config)
		wantErr string // substring of the expected error
	}{
		{"radix-too-small", func(c *Config) { c.K = 1 }, "topology"},
		{"dimensions-zero", func(c *Config) { c.N = 0 }, "topology"},
		{"dimensions-past-any-slice", func(c *Config) { c.N = 1 << 62 }, "too large"},
		{"hop-delay-overflows-gather", func(c *Config) { c.K, c.N, c.SidebandHopDelay = 4, 2, 1<<61 }, "sideband_hop_delay"},
		{"hop-delay-overflows-tuning-period", func(c *Config) { c.SidebandHopDelay = math.MaxInt64 / 16 }, "sideband_hop_delay"},
		// g = (16/2)*h*2 passes the 2^20-cycle gather cap by 16 cycles.
		{"hop-delay-past-gather-cap", func(c *Config) { c.SidebandHopDelay, c.SampleInterval = 1<<16+1, 1000 }, "sideband_hop_delay"},
		{"vcs-zero", func(c *Config) { c.VCs = 0 }, "virtual channel"},
		{"avoidance-needs-two-vcs", func(c *Config) { c.Mode = router.Avoidance; c.VCs = 1 }, "avoidance"},
		{"buf-depth-zero", func(c *Config) { c.BufDepth = 0 }, "buffer depth"},
		{"recovery-needs-timeout", func(c *Config) { c.DeadlockTimeout = 0 }, "timeout"},
		{"negative-token-wait", func(c *Config) { c.TokenWaitTimeout = -1 }, "token wait"},
		{"negative-delivery-channels", func(c *Config) { c.DeliveryChannels = -1 }, "delivery channel"},
		{"unknown-selection", func(c *Config) { c.Selection = router.SelectionPolicy(99) }, "selection"},
		{"unknown-switching", func(c *Config) { c.Switching = router.Switching(99) }, "switching"},
		{"unknown-deadlock-mode", func(c *Config) { c.Mode = router.DeadlockMode(99) }, "deadlock mode"},
		{"negative-shard-workers", func(c *Config) { c.ShardWorkers = -1 }, "worker count"},
		{"unknown-shard-dispatch", func(c *Config) { c.ShardDispatch = router.DispatchPolicy(99) }, "dispatch policy"},
		{"hop-delay-zero", func(c *Config) { c.SidebandHopDelay = 0 }, "hop delay"},
		{"negative-sideband-bits", func(c *Config) { c.SidebandBits = -1 }, "width"},
		{"sideband-bits-64", func(c *Config) { c.SidebandBits = 64 }, "width"},
		{"sideband-bits-far-past-63", func(c *Config) { c.SidebandBits = 1 << 40 }, "width"},
		{"unknown-mechanism", func(c *Config) { c.SidebandMechanism = sideband.Mechanism(99) }, "mechanism"},
		{"piggyback-p-above-one", func(c *Config) { c.PiggybackP = 1.5 }, "PiggybackP"},
		{"piggyback-p-negative", func(c *Config) { c.PiggybackP = -0.1 }, "PiggybackP"},
		{"packet-length-zero", func(c *Config) { c.PacketLength = 0 }, "packet length"},
		// A flit numbers its packet's flits with an int32 index.
		{"packet-length-past-int32", func(c *Config) { c.PacketLength = math.MaxInt32 + 1 }, "packet_length"},
		{"cut-through-shallow-buffers", func(c *Config) {
			c.Switching = router.CutThrough
			c.BufDepth, c.PacketLength = 8, 16
		}, "cut-through"},
		{"unknown-pattern", func(c *Config) { c.Pattern = "zigzag" }, "pattern"},
		{"rate-negative", func(c *Config) { c.Rate = -0.01 }, "rate"},
		{"rate-above-one", func(c *Config) { c.Rate = 1.5 }, "rate"},
		{"bad-schedule-spec", func(c *Config) {
			c.ScheduleSpec = &traffic.ScheduleSpec{Phases: []traffic.PhaseSpec{
				{Duration: -5, Pattern: traffic.UniformRandom, Process: traffic.ProcessSpec{Kind: traffic.IdleProcess}},
			}}
		}, "duration"},
		{"negative-warmup", func(c *Config) { c.WarmupCycles = -1 }, "warmup"},
		{"zero-measure", func(c *Config) { c.MeasureCycles = 0 }, "measure"},
		{"cycle-count-overflow", func(c *Config) { c.WarmupCycles, c.MeasureCycles = math.MaxInt64, 1 }, "warmup_cycles"},
		{"cycle-count-overflow-names-measure", func(c *Config) { c.WarmupCycles, c.MeasureCycles = 1, math.MaxInt64 }, "measure_cycles"},
		{"negative-sample-interval", func(c *Config) { c.SampleInterval = -1 }, "sample interval"},
		// The whole intervals of 1000 cycles start at 0 and 1000; the
		// one inside [100, 1999) would end at 2000.
		{"no-whole-sample-interval", func(c *Config) {
			c.WarmupCycles, c.MeasureCycles, c.SampleInterval = 100, 1899, 1000
		}, "sample_interval"},
		// The default interval g = (16/2)*64*2 = 1024 is longer than the run.
		{"no-whole-default-sample-interval", func(c *Config) {
			c.SidebandHopDelay, c.WarmupCycles, c.MeasureCycles = 64, 0, 1023
		}, "sideband_hop_delay"},
		{"unknown-scheme", func(c *Config) { c.Scheme.Kind = "magic" }, "scheme"},
		{"busyvc-negative-limit", func(c *Config) { c.Scheme = Scheme{Kind: BusyVC, BusyLimit: -1} }, "busy-VC"},
		{"static-needs-threshold", func(c *Config) { c.Scheme = Scheme{Kind: StaticGlobal} }, "threshold"},
		{"custom-needs-throttler", func(c *Config) { c.Scheme = Scheme{Kind: Custom} }, "throttler"},
		{"custom-lists-registered", func(c *Config) { c.Scheme = Scheme{Kind: Custom} }, "registered scheme"},
		// A registered kind builds its own controller and would never
		// call the factory.
		{"custom-factory-on-registered-kind", func(c *Config) {
			c.Scheme = Scheme{Kind: SelfTuned, Custom: func(congestion.Env) (congestion.Controller, error) {
				return congestion.None{}, nil
			}}
		}, "Scheme.Custom"},
		{"aimd-negative-window-min", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMin: -1}
		}, "window"},
		{"aimd-negative-window-max", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMax: -4}
		}, "window"},
		{"aimd-window-max-below-min", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMin: 8, WindowMax: 4}
		}, "window max"},
		{"aimd-window-max-past-int32", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMax: math.MaxInt32 + 1}
		}, "window max"},
		{"mark-threshold-above-one", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, MarkThreshold: 1.5}
		}, "mark"},
		{"mark-threshold-negative", func(c *Config) {
			c.Scheme = Scheme{Kind: Notify, MarkThreshold: -0.1}
		}, "mark"},
		{"notify-negative-staleness", func(c *Config) {
			c.Scheme = Scheme{Kind: Notify, Staleness: -1}
		}, "staleness"},
		{"notify-staleness-past-run-deadline", func(c *Config) {
			c.Scheme = Scheme{Kind: Notify, Staleness: math.MaxInt64 - c.TotalCycles() + 1}
		}, "staleness"},
		{"unknown-estimator", func(c *Config) { c.Scheme = Scheme{Kind: SelfTuned, Estimator: "psychic"} }, "estimator"},
		{"negative-tuning-period", func(c *Config) { c.Scheme = Scheme{Kind: SelfTuned, TuningPeriod: -96} }, "tuning period"},
		{"misaligned-tuning-period", func(c *Config) { c.Scheme = Scheme{Kind: SelfTuned, TuningPeriod: 97} }, "gather duration"},
		{"negative-static-threshold", func(c *Config) { c.Scheme = Scheme{Kind: StaticGlobal, StaticThreshold: -1} }, "static threshold"},
		{"tuner-zero-buffers", func(c *Config) { c.Scheme = Scheme{Kind: SelfTuned, Tuner: &core.TunerConfig{}} }, "TotalBuffers"},
		{"tuner-bad-initial", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.InitialFraction = 1.5
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		}, "InitialFraction"},
		{"tuner-zero-steps", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.IncrementFraction = 0
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		}, "IncrementFraction"},
		{"tuner-bad-drop", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.DropFraction = 1
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		}, "DropFraction"},
		{"tuner-bad-recover", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.RecoverFraction = 0
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		}, "RecoverFraction"},
		{"tuner-zero-reset-periods", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.ResetPeriods = 0
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		}, "ResetPeriods"},
		// A field the kind never reads is refused, one row per family:
		// local, global, window and notify.
		{"local-refuses-tuning-period", func(c *Config) {
			c.Scheme = Scheme{Kind: BusyVC, TuningPeriod: 96}
		}, `scheme "busyvc" never reads tuning_period`},
		{"global-refuses-busy-limit", func(c *Config) {
			c.Scheme = Scheme{Kind: StaticGlobal, StaticThreshold: 250, BusyLimit: 3}
		}, `scheme "static" never reads busy_limit`},
		{"window-refuses-static-threshold", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, StaticThreshold: 250}
		}, `scheme "aimd" never reads static_threshold`},
		{"notify-refuses-window-max", func(c *Config) {
			c.Scheme = Scheme{Kind: Notify, WindowMax: 8}
		}, `scheme "notify" never reads window_max`},
		// The kind decides local-maximum avoidance: tune avoids,
		// tune-hillclimb does not.
		{"tune-tuner-without-avoidance", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.AvoidLocalMaxima = false
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		}, "avoid_local_maxima"},
		{"hillclimb-tuner-with-avoidance", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			c.Scheme = Scheme{Kind: HillClimbOnly, Tuner: &tc}
		}, "avoid_local_maxima"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted: %s", tc.name)
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.wantErr)) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateAgreesWithNew requires Validate to reject every config
// New rejects. Each of these once passed Validate, and so a spec check
// and a 202 from stcc-serve, and failed only when New built the
// controller or compiled the workload.
func TestValidateAgreesWithNew(t *testing.T) {
	tuner := func(mut func(*core.TunerConfig)) *core.TunerConfig {
		tc := core.DefaultTunerConfig(3072)
		mut(&tc)
		return &tc
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"tuner-zero-initial-fraction", func(c *Config) {
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: tuner(func(tc *core.TunerConfig) { tc.InitialFraction = 0 })}
		}},
		{"tuner-increment-above-one", func(c *Config) {
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: tuner(func(tc *core.TunerConfig) { tc.IncrementFraction = 1.5 })}
		}},
		{"aimd-window-min-above-default-max", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMin: 100}
		}},
		{"bitreversal-schedule-on-3-ary-2-cube", func(c *Config) {
			c.K = 3
			c.ScheduleSpec = traffic.SteadySpec(traffic.BitReversal,
				traffic.ProcessSpec{Kind: traffic.BernoulliProcess, P: 0.01})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := NewConfig()
			tc.mut(&cfg)
			e, newErr := New(cfg)
			if newErr == nil {
				e.Close()
				t.Fatal("New accepted the config")
			}
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted a config New rejects with %q", newErr)
			}
		})
	}
}

// TestValidateAccepts pins the accept side of the table: every scheme
// kind and workload form the simulator supports must validate.
func TestValidateAccepts(t *testing.T) {
	cases := map[string]func(*Config){
		"defaults": func(*Config) {},
		"alo":      func(c *Config) { c.Scheme = Scheme{Kind: ALO} },
		"busyvc":   func(c *Config) { c.Scheme = Scheme{Kind: BusyVC, BusyLimit: 2} },
		"static":   func(c *Config) { c.Scheme = Scheme{Kind: StaticGlobal, StaticThreshold: 250} },
		"tune":     func(c *Config) { c.Scheme = Scheme{Kind: SelfTuned, Estimator: LastValueEstimator} },
		"hillclimb": func(c *Config) {
			c.Scheme = Scheme{Kind: HillClimbOnly, TuningPeriod: 96}
		},
		"tuner-override": func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			c.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc}
		},
		"hillclimb-tuner-override": func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.AvoidLocalMaxima = false
			c.Scheme = Scheme{Kind: HillClimbOnly, Tuner: &tc}
		},
		"aimd":         func(c *Config) { c.Scheme = Scheme{Kind: AIMD} },
		"aimd-bounded": func(c *Config) { c.Scheme = Scheme{Kind: AIMD, WindowMin: 2, WindowMax: 32, MarkThreshold: 0.5} },
		"aimd-largest-window": func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMin: math.MaxInt32, WindowMax: math.MaxInt32}
		},
		"notify":       func(c *Config) { c.Scheme = Scheme{Kind: Notify} },
		"notify-tuned": func(c *Config) { c.Scheme = Scheme{Kind: Notify, Staleness: 128, MarkThreshold: 0.9} },
		"notify-largest-staleness": func(c *Config) {
			c.Scheme = Scheme{Kind: Notify, Staleness: math.MaxInt64 - c.TotalCycles()}
		},
		"sideband-bits-63": func(c *Config) { c.SidebandBits = 63 },
		"largest-packet":   func(c *Config) { c.PacketLength = math.MaxInt32 },
		// The largest hop delay whose gather g = (16/2)*h*2 fits the
		// 2^20-cycle cap; g is longer than the run, so the series
		// samples at an explicit interval.
		"largest-hop-delay": func(c *Config) { c.SidebandHopDelay, c.SampleInterval = 1<<16, 1000 },
		// One whole interval fits each window: [1000, 2000) in
		// [100, 2000), and [0, 1024) in [0, 1024).
		"one-whole-sample-interval": func(c *Config) {
			c.WarmupCycles, c.MeasureCycles, c.SampleInterval = 100, 1900, 1000
		},
		"one-whole-default-sample-interval": func(c *Config) {
			c.SidebandHopDelay, c.WarmupCycles, c.MeasureCycles = 64, 0, 1024
		},
		"schedule-spec": func(c *Config) {
			c.ScheduleSpec = traffic.SteadySpec(traffic.UniformRandom,
				traffic.ProcessSpec{Kind: traffic.PeriodicProcess, Interval: 50})
		},
		"avoidance-cut-through": func(c *Config) {
			c.Mode = router.Avoidance
			c.Switching = router.CutThrough
			c.BufDepth = c.PacketLength
		},
	}
	for name, mut := range cases {
		cfg := NewConfig()
		mut(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: valid config rejected: %v", name, err)
		}
	}
}

// TestValidateReadsDeclaredFields sets each optional scheme field on
// each registered kind. A kind accepts exactly the fields it reads and
// refuses every other, naming the field and the kind; custom accepts
// them all.
func TestValidateReadsDeclaredFields(t *testing.T) {
	global := []string{"estimator", "tuning_period", "keep_trace"}
	reads := map[SchemeKind][]string{
		Base: nil, ALO: nil,
		BusyVC:        {"busy_limit"},
		StaticGlobal:  append([]string{"static_threshold"}, global...),
		SelfTuned:     append([]string{"tuner"}, global...),
		HillClimbOnly: append([]string{"tuner"}, global...),
		AIMD:          {"window_min", "window_max", "mark_threshold"},
		Notify:        {"staleness", "mark_threshold"},
	}
	fields := []struct {
		name string
		set  func(*Scheme)
	}{
		{"static_threshold", func(s *Scheme) { s.StaticThreshold = 300 }},
		{"busy_limit", func(s *Scheme) { s.BusyLimit = 2 }},
		{"estimator", func(s *Scheme) { s.Estimator = LastValueEstimator }},
		{"tuning_period", func(s *Scheme) { s.TuningPeriod = 192 }},
		{"tuner", func(s *Scheme) {
			tc := core.DefaultTunerConfig(3072)
			tc.AvoidLocalMaxima = s.Kind != HillClimbOnly
			s.Tuner = &tc
		}},
		{"keep_trace", func(s *Scheme) { s.KeepTrace = true }},
		{"window_min", func(s *Scheme) { s.WindowMin = 2 }},
		{"window_max", func(s *Scheme) { s.WindowMax = 32 }},
		{"mark_threshold", func(s *Scheme) { s.MarkThreshold = 0.5 }},
		{"staleness", func(s *Scheme) { s.Staleness = 128 }},
	}
	kinds := congestion.Names()
	if len(kinds) != len(reads) {
		t.Fatalf("registered kinds %v, want the %d this table covers", kinds, len(reads))
	}
	accepted, refused := 0, 0
	for _, kind := range append(kinds, string(Custom)) {
		for _, f := range fields {
			cfg := NewConfig()
			cfg.Scheme = Scheme{Kind: SchemeKind(kind)}
			switch cfg.Scheme.Kind {
			case StaticGlobal:
				cfg.Scheme.StaticThreshold = 250
			case Custom:
				cfg.Scheme.Custom = func(congestion.Env) (congestion.Controller, error) { return congestion.None{}, nil }
			}
			f.set(&cfg.Scheme)
			err := cfg.Validate()
			if cfg.Scheme.Kind == Custom || slices.Contains(reads[cfg.Scheme.Kind], f.name) {
				if err != nil {
					t.Errorf("%s with %s refused: %v", kind, f.name, err)
				}
				if cfg.Scheme.Kind != Custom {
					accepted++
				}
				continue
			}
			refused++
			if want := fmt.Sprintf("scheme %q never reads %s", kind, f.name); err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s with %s: error %v, want one ending %q", kind, f.name, err, want)
			}
		}
	}
	if accepted != 18 || refused != 62 {
		t.Errorf("%d (kind, field) pairs accepted and %d refused, want 18 and 62", accepted, refused)
	}
}

// TestMarkingFollowsDeclaredReads checks where routers mark congestion:
// by default only for the registered kinds that read mark_threshold,
// and for custom only with an explicit mark_threshold.
func TestMarkingFollowsDeclaredReads(t *testing.T) {
	custom := func(congestion.Env) (congestion.Controller, error) { return congestion.None{}, nil }
	for _, tc := range []struct {
		scheme Scheme
		marks  bool
	}{
		{Scheme{Kind: AIMD}, true},
		{Scheme{Kind: Notify}, true},
		{Scheme{Kind: SelfTuned}, false},
		{Scheme{Kind: BusyVC}, false},
		{Scheme{Kind: Custom, Custom: custom}, false},
		{Scheme{Kind: Custom, Custom: custom, MarkThreshold: 0.5}, true},
	} {
		cfg := fastConfig()
		cfg.Scheme = tc.scheme
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if marks := e.Fabric().CongestionBits() != nil; marks != tc.marks {
			t.Errorf("%s (mark_threshold %g): marking %t, want %t", tc.scheme.Kind, tc.scheme.MarkThreshold, marks, tc.marks)
		}
	}
}
