// Package sim is the cycle-driven simulation engine: it assembles the
// router fabric, the side-band information network, a congestion
// controller and a synthetic workload, runs the cycle loop, and collects
// the statistics the paper's evaluation reports (accepted traffic in
// flits/node/cycle, packet latency, full-buffer and throughput time
// series, and the self-tuner's threshold trace).
package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SchemeKind selects the congestion control scheme.
type SchemeKind string

// Congestion control schemes evaluated in the paper.
const (
	// Base applies no congestion control.
	Base SchemeKind = "base"
	// ALO is the At-Least-One local-estimation baseline.
	ALO SchemeKind = "alo"
	// BusyVC is the Lopez et al. local baseline: throttle when the
	// node's busy output VC count exceeds Scheme.BusyLimit.
	BusyVC SchemeKind = "busyvc"
	// StaticGlobal throttles against a fixed global full-buffer
	// threshold (Figure 5's static thresholds).
	StaticGlobal SchemeKind = "static"
	// SelfTuned is the paper's scheme: global estimation plus the
	// hill-climbing threshold tuner with local-maximum avoidance.
	SelfTuned SchemeKind = "tune"
	// HillClimbOnly is SelfTuned without the local-maximum avoidance
	// mechanism (the Figure 4 ablation).
	HillClimbOnly SchemeKind = "tune-hillclimb"
	// AIMD is the window-based controller (Jain/Ramakrishnan/Chiu):
	// per-source injection windows with additive growth and
	// multiplicative halving on DECbit congestion marks.
	AIMD SchemeKind = "aimd"
	// Notify is notification-based throttling: routers whose congestion
	// bit rises broadcast side-band notifications that gate source
	// injection until they go stale.
	Notify SchemeKind = "notify"
	// Custom runs a controller built by a user-supplied
	// congestion.Factory (Scheme.Custom). In-process only: a custom
	// scheme has no wire form, so spec-driven runs must use a
	// registered scheme.
	Custom SchemeKind = "custom"
)

// DefaultMarkThreshold is the router occupancy fraction at which the
// DECbit congestion bit sets for the mark-based schemes when
// Scheme.MarkThreshold is unset. Three quarters of a router's buffer
// capacity: well past any transient burst, well before wormhole
// back-pressure makes the marks redundant.
const DefaultMarkThreshold = 0.75

// EstimatorKind selects how global congestion is predicted between
// side-band snapshots.
type EstimatorKind string

// Estimator kinds.
const (
	// LinearEstimator extrapolates from the last two snapshots (the
	// paper's default, worth ~3-5% throughput).
	LinearEstimator EstimatorKind = "linear"
	// LastValueEstimator holds the last snapshot.
	LastValueEstimator EstimatorKind = "last"
)

// check rejects an estimator name other than the two kinds ("" is linear).
func (k EstimatorKind) check() error {
	switch k {
	case "", LinearEstimator, LastValueEstimator:
		return nil
	}
	return fmt.Errorf("sim: unknown estimator %q", k)
}

// Scheme configures the congestion controller. Its json tags, like
// Config's, are the wire names; the optional knobs are omitempty, so
// configs that predate a knob keep their encoding and fingerprint.
type Scheme struct {
	Kind SchemeKind `json:"kind"`
	// StaticThreshold is the full-buffer threshold for StaticGlobal.
	StaticThreshold float64 `json:"static_threshold,omitempty"`
	// BusyLimit is the busy-VC injection limit for BusyVC; zero selects
	// half the node's output VCs.
	BusyLimit int `json:"busy_limit,omitempty"`
	// Estimator applies to the global schemes; empty means linear.
	Estimator EstimatorKind `json:"estimator,omitempty"`
	// TuningPeriod in cycles for the global schemes; 0 means three
	// gather periods (the paper's 96 cycles for the 16-ary 2-cube).
	TuningPeriod int64 `json:"tuning_period,omitempty"`
	// Tuner overrides the tuning parameters; nil means the paper
	// defaults for the configured network.
	Tuner *core.TunerConfig `json:"tuner,omitempty"`
	// KeepTrace retains the per-tuning-period threshold trace.
	KeepTrace bool `json:"keep_trace,omitempty"`
	// WindowMin and WindowMax bound the AIMD per-source injection
	// window, in packets; zero selects the scheme defaults (1 and 64).
	WindowMin int `json:"window_min,omitempty"`
	WindowMax int `json:"window_max,omitempty"`
	// MarkThreshold is the router occupancy fraction at which the
	// DECbit congestion bit sets, for the mark-based schemes (AIMD,
	// Notify); zero selects DefaultMarkThreshold. The bit clears at
	// half the mark (hysteresis).
	MarkThreshold float64 `json:"mark_threshold,omitempty"`
	// Staleness is how long a delivered congestion notification keeps
	// gating injection (Notify), in cycles; zero selects two gather
	// durations.
	Staleness int64 `json:"staleness,omitempty"`
	// Custom builds the controller when Kind is Custom. It is called
	// once per run with the Env the registered factories receive, so
	// it wires the controller to env.Local or env.Side itself. It has
	// no wire form (see Config.Serializable).
	Custom congestion.Factory `json:"-"`
}

// params maps the Scheme to the congestion registry's parameter struct.
func (s Scheme) params() congestion.Params {
	p := congestion.Params{
		BusyLimit:       s.BusyLimit,
		StaticThreshold: s.StaticThreshold,
		Estimator:       string(s.Estimator),
		TuningPeriod:    s.TuningPeriod,
		KeepTrace:       s.KeepTrace,
		WindowMin:       s.WindowMin,
		WindowMax:       s.WindowMax,
		Staleness:       s.Staleness,
	}
	// Params.Tuner is an untyped any: assign only a live override, so a
	// nil *core.TunerConfig never becomes a non-nil interface.
	if s.Tuner != nil {
		p.Tuner = s.Tuner
	}
	return p
}

// markFraction resolves the router's congestion-mark fraction: the
// explicit MarkThreshold when set, the DECbit default for the schemes
// that consume marks, and zero (marking disabled, zero router overhead)
// for every other scheme.
func (s Scheme) markFraction() float64 {
	if s.MarkThreshold != 0 {
		return s.MarkThreshold
	}
	if s.Kind == AIMD || s.Kind == Notify {
		return DefaultMarkThreshold
	}
	return 0
}

// Config describes one simulation run. NewConfig supplies the paper's
// defaults. The json tags are the versioned wire form (see MarshalJSON):
// the field order is the encoding order Fingerprint hashes, so fields
// must not be reordered, and a new optional field must be omitempty to
// keep existing fingerprints.
type Config struct {
	// Network shape.
	K        int `json:"k"`
	N        int `json:"n"`
	VCs      int `json:"vcs"`
	BufDepth int `json:"buf_depth"`

	// PacketLength in flits.
	PacketLength int `json:"packet_length"`

	// Deadlock handling.
	Mode             router.DeadlockMode `json:"mode"`
	DeadlockTimeout  int64               `json:"deadlock_timeout,omitempty"`
	TokenWaitTimeout int64               `json:"token_wait_timeout,omitempty"` // 0 = 2.4x DeadlockTimeout

	// Side-band parameters.
	SidebandHopDelay  int                `json:"sideband_hop_delay"`
	SidebandBits      int                `json:"sideband_bits,omitempty"` // 0 = full precision
	SidebandMechanism sideband.Mechanism `json:"sideband_mechanism"`      // dedicated, meta-packet or piggyback
	PiggybackP        float64            `json:"piggyback_p,omitempty"`   // snapshot delivery probability (piggyback)

	// Router extensions beyond the paper's fixed configuration.
	DeliveryChannels int                    `json:"delivery_channels,omitempty"` // consumption channels per node (0 = 1)
	Selection        router.SelectionPolicy `json:"selection"`                   // adaptive port selection
	Switching        router.Switching       `json:"switching"`                   // wormhole (default) or cut-through

	// Workload, by precedence: a live Schedule (in-process callers
	// only; not serializable), a declarative ScheduleSpec (the form
	// experiment specs and JSON configs carry), or Pattern+Rate for a
	// steady Bernoulli load.
	Schedule     *traffic.Schedule     `json:"-"`
	ScheduleSpec *traffic.ScheduleSpec `json:"schedule,omitempty"`
	Pattern      traffic.PatternKind   `json:"pattern,omitempty"`
	Rate         float64               `json:"rate,omitempty"` // packets/node/cycle

	Scheme Scheme `json:"scheme"`

	// ShardWorkers is accepted and ignored: one simulation always steps
	// serially, and parallelism comes from running independent points
	// side by side (Runner workers). The field keeps
	// configs and specs that set it parsing; a negative value is still
	// rejected. Fingerprint excludes it, so such configs share cached
	// results with configs that leave it unset.
	ShardWorkers int `json:"shard_workers,omitempty"`

	// ShardDispatch is accepted and ignored like ShardWorkers; an
	// unknown policy name is still rejected, and Fingerprint excludes it.
	ShardDispatch router.DispatchPolicy `json:"shard_dispatch,omitempty"`

	// Durations. Statistics cover [WarmupCycles, WarmupCycles+MeasureCycles).
	WarmupCycles  int64 `json:"warmup_cycles"`
	MeasureCycles int64 `json:"measure_cycles"`

	// SampleInterval is the time-series resolution in cycles; 0 means
	// one gather period.
	SampleInterval int64 `json:"sample_interval,omitempty"`

	Seed int64 `json:"seed"`
}

// NewConfig returns the paper's simulation parameters: a 16-ary 2-cube,
// 3 VCs of depth 8, 16-flit packets, side-band hop delay 2 (g = 32),
// uniform random traffic, no congestion control, deadlock recovery, 600k
// cycles with 100k warm-up. The deadlock timeout defaults to 160 cycles:
// the paper's text reads "8 cycles" but the supplied copy demonstrably
// drops digits from numbers, and 160 is the calibrated value that places
// the recovery configuration's throughput collapse at this simulator's
// measured saturation point, reproducing the paper's Figure 1/3 shape.
func NewConfig() Config {
	return Config{
		K: 16, N: 2,
		VCs: 3, BufDepth: 8,
		PacketLength:     16,
		Mode:             router.Recovery,
		DeadlockTimeout:  160,
		SidebandHopDelay: 2,
		Pattern:          traffic.UniformRandom,
		Rate:             0.001,
		Scheme:           Scheme{Kind: Base},
		WarmupCycles:     100_000,
		MeasureCycles:    500_000,
		Seed:             1,
	}
}

// Topology constructs the configured torus.
func (c Config) Topology() (*topology.Torus, error) { return topology.New(c.K, c.N) }

// TotalBuffers returns the network-wide VC buffer count.
func (c Config) TotalBuffers() int {
	t, err := c.Topology()
	if err != nil {
		return 0
	}
	return t.TotalVCBuffers(c.VCs)
}

// GatherDuration returns the side-band's g for this configuration.
func (c Config) GatherDuration() int64 {
	return sideband.Config{K: c.K, N: c.N, HopDelay: c.SidebandHopDelay}.GatherDuration()
}

// Validate checks the configuration. It applies the rules New applies
// when it builds the controller and compiles the workload, so a config
// that validates also builds.
func (c Config) Validate() error {
	topo, err := c.Topology()
	if err != nil {
		return err
	}
	if err := c.routerConfig(topo).Validate(); err != nil {
		return err
	}
	if err := c.sidebandConfig(topo).Validate(); err != nil {
		return err
	}
	// The gather duration g = (k/2)*h*n, the default tuning period 3g
	// and the notify wheel's g+2 slots must all fit in an int64.
	if per := 3 * int64(c.K/2) * int64(c.N); int64(c.SidebandHopDelay) > math.MaxInt64/per {
		return fmt.Errorf("sim: sideband_hop_delay %d overflows the gather duration (k/2)*h*n of a %d-ary %d-cube",
			c.SidebandHopDelay, c.K, c.N)
	}
	if c.PacketLength < 1 {
		return fmt.Errorf("sim: packet length must be >= 1, got %d", c.PacketLength)
	}
	if c.Switching == router.CutThrough && c.BufDepth < c.PacketLength {
		return fmt.Errorf("sim: cut-through needs BufDepth >= PacketLength (%d < %d)",
			c.BufDepth, c.PacketLength)
	}
	switch {
	case c.Schedule != nil:
	case c.ScheduleSpec != nil:
		// Compiled, not only checked by name: a pattern may reject
		// this network's node count.
		if _, err := c.ScheduleSpec.Build(topo.Nodes()); err != nil {
			return err
		}
	default:
		if _, err := traffic.NewPattern(c.Pattern, topo.Nodes()); err != nil {
			return err
		}
		if c.Rate < 0 || c.Rate > 1 {
			return fmt.Errorf("sim: rate %g out of [0,1]", c.Rate)
		}
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("sim: need non-negative warmup and positive measure cycles")
	}
	if c.WarmupCycles > math.MaxInt64-c.MeasureCycles {
		return fmt.Errorf("sim: warmup_cycles %d + measure_cycles %d overflows the run length", c.WarmupCycles, c.MeasureCycles)
	}
	if c.SampleInterval < 0 {
		return fmt.Errorf("sim: negative sample interval")
	}
	// Scheme-kind validity derives from the congestion registry: a kind
	// is runnable exactly when a factory self-registered under its name.
	// Custom is the one non-registry kind — an in-process escape hatch
	// with no wire form.
	switch c.Scheme.Kind {
	case Custom:
		if c.Scheme.Custom == nil {
			return fmt.Errorf("sim: custom scheme needs a factory (Scheme.Custom) to build its throttler; spec-driven runs cannot carry one and must use a registered scheme (%s)",
				strings.Join(congestion.Names(), ", "))
		}
	default:
		if !congestion.Registered(string(c.Scheme.Kind)) {
			return fmt.Errorf("sim: unknown scheme %q (registered: %s)",
				c.Scheme.Kind, strings.Join(congestion.Names(), ", "))
		}
	}
	// Per-kind parameter rules.
	switch c.Scheme.Kind {
	case BusyVC:
		if c.Scheme.BusyLimit < 0 {
			return fmt.Errorf("sim: negative busy-VC limit")
		}
	case StaticGlobal:
		if c.Scheme.StaticThreshold <= 0 {
			return fmt.Errorf("sim: static scheme needs a positive threshold")
		}
	}
	// Unset AIMD bounds resolve to the defaults, which always pass.
	if wmin, wmax := c.Scheme.WindowMin, c.Scheme.WindowMax; wmin != 0 || wmax != 0 {
		if _, _, err := congestion.AIMDWindow(wmin, wmax); err != nil {
			return err
		}
	}
	if c.Scheme.Staleness < 0 {
		return fmt.Errorf("sim: negative notification staleness %d", c.Scheme.Staleness)
	}
	if err := c.Scheme.Estimator.check(); err != nil {
		return err
	}
	if tp := c.Scheme.TuningPeriod; tp < 0 {
		return fmt.Errorf("sim: negative tuning period %d", tp)
	} else if tp != 0 && tp%c.GatherDuration() != 0 {
		return fmt.Errorf("sim: tuning period %d not a multiple of gather duration %d", tp, c.GatherDuration())
	}
	if c.Scheme.StaticThreshold < 0 {
		return fmt.Errorf("sim: negative static threshold %g", c.Scheme.StaticThreshold)
	}
	if tc := c.Scheme.Tuner; tc != nil {
		if err := tc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TotalCycles returns the full run length.
func (c Config) TotalCycles() int64 { return c.WarmupCycles + c.MeasureCycles }

// routerConfig assembles the router fabric configuration.
func (c Config) routerConfig(topo *topology.Torus) router.Config {
	return router.Config{
		Topo: topo, VCs: c.VCs, BufDepth: c.BufDepth,
		Mode: c.Mode, DeadlockTimeout: c.DeadlockTimeout, TokenWaitTimeout: c.TokenWaitTimeout,
		DeliveryChannels: c.DeliveryChannels, Selection: c.Selection, Switching: c.Switching,
		Workers: c.ShardWorkers, Dispatch: c.ShardDispatch,
		CongestMark: c.Scheme.markFraction(),
	}
}

// sidebandConfig assembles the side-band configuration.
func (c Config) sidebandConfig(topo *topology.Torus) sideband.Config {
	return sideband.Config{
		K: c.K, N: c.N, HopDelay: c.SidebandHopDelay, Bits: c.SidebandBits,
		Mechanism: c.SidebandMechanism, TotalBuffers: topo.TotalVCBuffers(c.VCs),
		PiggybackP: c.PiggybackP, Seed: c.Seed,
	}
}

// schedule resolves the workload schedule: a live Schedule wins, then a
// declarative ScheduleSpec compiled for this topology, then the steady
// Pattern+Rate load.
func (c Config) schedule(topo *topology.Torus) (*traffic.Schedule, error) {
	if c.Schedule != nil {
		return c.Schedule, nil
	}
	if c.ScheduleSpec != nil {
		return c.ScheduleSpec.Build(topo.Nodes())
	}
	pat, err := traffic.NewPattern(c.Pattern, topo.Nodes())
	if err != nil {
		return nil, err
	}
	return traffic.Steady(pat, traffic.Bernoulli{P: c.Rate}), nil
}
