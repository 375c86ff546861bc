package sim

import (
	"math"
	"strings"
	"testing"

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
		{"unknown-mechanism", func(c *Config) { c.SidebandMechanism = sideband.Mechanism(99) }, "mechanism"},
		{"piggyback-p-above-one", func(c *Config) { c.PiggybackP = 1.5 }, "PiggybackP"},
		{"piggyback-p-negative", func(c *Config) { c.PiggybackP = -0.1 }, "PiggybackP"},
		{"packet-length-zero", func(c *Config) { c.PacketLength = 0 }, "packet length"},
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
		{"unknown-scheme", func(c *Config) { c.Scheme.Kind = "magic" }, "scheme"},
		{"busyvc-negative-limit", func(c *Config) { c.Scheme = Scheme{Kind: BusyVC, BusyLimit: -1} }, "busy-VC"},
		{"static-needs-threshold", func(c *Config) { c.Scheme = Scheme{Kind: StaticGlobal} }, "threshold"},
		{"custom-needs-throttler", func(c *Config) { c.Scheme = Scheme{Kind: Custom} }, "throttler"},
		{"custom-lists-registered", func(c *Config) { c.Scheme = Scheme{Kind: Custom} }, "registered scheme"},
		{"aimd-negative-window-min", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMin: -1}
		}, "window"},
		{"aimd-negative-window-max", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMax: -4}
		}, "window"},
		{"aimd-window-max-below-min", func(c *Config) {
			c.Scheme = Scheme{Kind: AIMD, WindowMin: 8, WindowMax: 4}
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
		{"unknown-estimator", func(c *Config) { c.Scheme.Estimator = "psychic" }, "estimator"},
		{"negative-tuning-period", func(c *Config) { c.Scheme.TuningPeriod = -96 }, "tuning period"},
		{"misaligned-tuning-period", func(c *Config) { c.Scheme.TuningPeriod = 97 }, "gather duration"},
		{"negative-static-threshold", func(c *Config) { c.Scheme.StaticThreshold = -1 }, "static threshold"},
		{"tuner-zero-buffers", func(c *Config) { c.Scheme.Tuner = &core.TunerConfig{} }, "TotalBuffers"},
		{"tuner-bad-initial", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.InitialFraction = 1.5
			c.Scheme.Tuner = &tc
		}, "InitialFraction"},
		{"tuner-zero-steps", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.IncrementFraction = 0
			c.Scheme.Tuner = &tc
		}, "IncrementFraction"},
		{"tuner-bad-drop", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.DropFraction = 1
			c.Scheme.Tuner = &tc
		}, "DropFraction"},
		{"tuner-bad-recover", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.RecoverFraction = 0
			c.Scheme.Tuner = &tc
		}, "RecoverFraction"},
		{"tuner-zero-reset-periods", func(c *Config) {
			tc := core.DefaultTunerConfig(3072)
			tc.ResetPeriods = 0
			c.Scheme.Tuner = &tc
		}, "ResetPeriods"},
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
		"aimd":         func(c *Config) { c.Scheme = Scheme{Kind: AIMD} },
		"aimd-bounded": func(c *Config) { c.Scheme = Scheme{Kind: AIMD, WindowMin: 2, WindowMax: 32, MarkThreshold: 0.5} },
		"notify":       func(c *Config) { c.Scheme = Scheme{Kind: Notify} },
		"notify-tuned": func(c *Config) { c.Scheme = Scheme{Kind: Notify, Staleness: 128, MarkThreshold: 0.9} },
		// The largest hop delay whose default tuning period 3g fits.
		"largest-hop-delay": func(c *Config) { c.SidebandHopDelay = math.MaxInt64 / (3 * 8 * 2) },
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
