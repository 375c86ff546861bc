// Package sim is the cycle-driven simulation engine: it assembles the
// router fabric, the side-band information network, a congestion
// controller and a synthetic workload, runs the cycle loop, and collects
// the statistics the paper's evaluation reports (accepted traffic in
// flits/node/cycle, packet latency, full-buffer and throughput time
// series, and the self-tuner's threshold trace). A Config's Scheme is
// congestion.Params, the scheme's wire form, which the engine hands to
// the scheme's factory unchanged; the factory reads the scheme's name
// from its Env.Kind.
package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/congestion"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// SchemeKind selects the congestion control scheme.
type SchemeKind = congestion.SchemeKind

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

// EstimatorKind names how global congestion is predicted between
// side-band snapshots. It is a plain string, the type of
// Scheme.Estimator.
type EstimatorKind = string

// Estimator kinds.
const (
	// LinearEstimator extrapolates from the last two snapshots (the
	// paper's default, worth ~3-5% throughput).
	LinearEstimator EstimatorKind = "linear"
	// LastValueEstimator holds the last snapshot.
	LastValueEstimator EstimatorKind = "last"
)

// checkEstimator rejects an estimator name other than the two kinds
// ("" is linear).
func checkEstimator(k EstimatorKind) error {
	switch k {
	case "", LinearEstimator, LastValueEstimator:
		return nil
	}
	return fmt.Errorf("sim: unknown estimator %q", k)
}

// Scheme configures the congestion controller. It is congestion.Params,
// the one definition of a scheme's fields and wire names, which the
// scheme's factory receives as Env.Params. Custom has no wire form (see
// Config.Serializable).
type Scheme = congestion.Params

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

	// PacketLength in flits, at most math.MaxInt32.
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

// maxGather caps the gather duration g = (k/2)*h*n, in cycles: 2^20 is
// the longest gather that still delivers a snapshot inside a
// paper-length run (600k cycles), rounded up to a power of two. It
// bounds the notify wheel's g+2 slots to about 25 MB and keeps the
// default tuning period 3g and staleness 2g far from overflow.
const maxGather = 1 << 20

// plan is a Config resolved into what New builds an engine from.
type plan struct {
	topo    *topology.Torus
	router  router.Config
	side    sideband.Config
	sched   *traffic.Schedule // the live or compiled schedule; nil for the steady load
	pattern traffic.Pattern   // the steady Pattern+Rate load's pattern
	factory congestion.Factory
	// interval is the sample interval: SampleInterval, or g when unset.
	interval int64
}

// Validate checks the configuration. It is New's resolution pass
// without the allocation, so a config that validates also builds.
func (c Config) Validate() error {
	var p plan
	return c.plan(&p)
}

// plan resolves c into p, applying every rule a config must pass. It is
// the only code that reads a Config's network, side-band, workload and
// scheme: Validate returns its error, and New builds from p.
func (c Config) plan(p *plan) error {
	topo, err := c.Topology()
	if err != nil {
		return err
	}
	p.topo = topo
	// The factory is the congestion registry's for the scheme kind,
	// which declares the Params fields it reads, or Scheme.Custom: the
	// in-process escape hatch with no wire form, which only the Custom
	// kind calls and which may read any field.
	var reads congestion.Fields
	switch {
	case c.Scheme.Kind == Custom:
		if p.factory = c.Scheme.Custom; p.factory == nil {
			return fmt.Errorf("sim: custom scheme needs a factory (Scheme.Custom) to build its throttler; spec-driven runs cannot carry one and must use a registered scheme (%s)",
				strings.Join(congestion.Names(), ", "))
		}
	case c.Scheme.Custom != nil:
		return fmt.Errorf("sim: Scheme.Custom is set on scheme %q, which never calls it; only kind %q runs a custom factory",
			c.Scheme.Kind, Custom)
	default:
		var ok bool
		if p.factory, reads, ok = congestion.Find(string(c.Scheme.Kind)); !ok {
			return fmt.Errorf("sim: unknown scheme %q (registered: %s)",
				c.Scheme.Kind, strings.Join(congestion.Names(), ", "))
		}
		if extra := c.Scheme.SetFields() &^ reads; extra != 0 {
			return fmt.Errorf("sim: scheme %q never reads %s", c.Scheme.Kind, extra)
		}
	}
	// Marking is on at MarkThreshold, or by default for the registered
	// kinds that read it; otherwise it is off, at zero router overhead.
	mark := c.Scheme.MarkThreshold
	if mark == 0 && reads&congestion.MarkThresholdField != 0 {
		mark = DefaultMarkThreshold
	}
	p.router = router.Config{
		Topo: topo, VCs: c.VCs, BufDepth: c.BufDepth,
		Mode: c.Mode, DeadlockTimeout: c.DeadlockTimeout, TokenWaitTimeout: c.TokenWaitTimeout,
		DeliveryChannels: c.DeliveryChannels, Selection: c.Selection, Switching: c.Switching,
		Workers: c.ShardWorkers, Dispatch: c.ShardDispatch,
		CongestMark: mark,
	}
	if err := p.router.Validate(); err != nil {
		return err
	}
	p.side = sideband.Config{
		K: c.K, N: c.N, HopDelay: c.SidebandHopDelay, Bits: c.SidebandBits,
		Mechanism: c.SidebandMechanism, TotalBuffers: topo.TotalVCBuffers(c.VCs),
		PiggybackP: c.PiggybackP, Seed: c.Seed,
	}
	if err := p.side.Validate(); err != nil {
		return err
	}
	if int64(c.SidebandHopDelay) > maxGather/(int64(c.K/2)*int64(c.N)) {
		return fmt.Errorf("sim: sideband_hop_delay %d makes the gather duration (k/2)*h*n of a %d-ary %d-cube exceed %d cycles",
			c.SidebandHopDelay, c.K, c.N, maxGather)
	}
	if c.PacketLength < 1 {
		return fmt.Errorf("sim: packet length must be >= 1, got %d", c.PacketLength)
	}
	if c.PacketLength > math.MaxInt32 {
		return fmt.Errorf("sim: packet_length %d exceeds %d, the most flits a flit's int32 index can number", c.PacketLength, math.MaxInt32)
	}
	if c.Switching == router.CutThrough && c.BufDepth < c.PacketLength {
		return fmt.Errorf("sim: cut-through needs BufDepth >= PacketLength (%d < %d)",
			c.BufDepth, c.PacketLength)
	}
	// The workload, by precedence: a live Schedule, a ScheduleSpec
	// compiled for this network (a pattern may reject its node count),
	// or the steady Pattern+Rate load, whose schedule New builds.
	switch {
	case c.Schedule != nil:
		p.sched = c.Schedule
	case c.ScheduleSpec != nil:
		if p.sched, err = c.ScheduleSpec.Build(topo.Nodes()); err != nil {
			return err
		}
	default:
		if p.pattern, err = traffic.NewPattern(c.Pattern, topo.Nodes()); err != nil {
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
	// Accepted traffic and full buffers average the whole sample
	// intervals that start in the measured window, so the window must
	// hold one: the first interval starting at or after warm-up ends by
	// the last cycle.
	if p.interval = c.SampleInterval; p.interval == 0 {
		p.interval = p.side.GatherDuration()
	}
	first := c.WarmupCycles / p.interval
	if c.WarmupCycles%p.interval != 0 {
		first++
	}
	if first >= c.TotalCycles()/p.interval {
		what := fmt.Sprintf("sample_interval %d", p.interval)
		if c.SampleInterval == 0 {
			what = fmt.Sprintf("sideband_hop_delay %d (the sample interval defaults to g = %d)", c.SidebandHopDelay, p.interval)
		}
		return fmt.Errorf("sim: %s leaves no whole sample interval in the measured window [%d, %d), so accepted traffic would read 0",
			what, c.WarmupCycles, c.TotalCycles())
	}
	if c.Scheme.Kind == StaticGlobal && c.Scheme.StaticThreshold <= 0 {
		return fmt.Errorf("sim: static scheme needs a positive static threshold, got %g", c.Scheme.StaticThreshold)
	}
	if c.Scheme.BusyLimit < 0 {
		return fmt.Errorf("sim: negative busy-VC limit %d", c.Scheme.BusyLimit)
	}
	// Unset AIMD bounds resolve to the defaults, which always pass.
	if wmin, wmax := c.Scheme.WindowMin, c.Scheme.WindowMax; wmin != 0 || wmax != 0 {
		if _, _, err := congestion.AIMDWindow(wmin, wmax); err != nil {
			return err
		}
	}
	// A notified source is gated until now + staleness, which must fit
	// an int64 at every cycle of the run.
	if s := c.Scheme.Staleness; s < 0 {
		return fmt.Errorf("sim: negative notification staleness %d", s)
	} else if s > math.MaxInt64-c.TotalCycles() {
		return fmt.Errorf("sim: staleness %d overflows the gating deadline of a %d-cycle run (at most %d)",
			s, c.TotalCycles(), math.MaxInt64-c.TotalCycles())
	}
	if err := checkEstimator(c.Scheme.Estimator); err != nil {
		return err
	}
	if tp, g := c.Scheme.TuningPeriod, p.side.GatherDuration(); tp < 0 {
		return fmt.Errorf("sim: negative tuning period %d", tp)
	} else if tp != 0 && tp%g != 0 {
		return fmt.Errorf("sim: tuning period %d not a multiple of gather duration %d", tp, g)
	}
	if tc := c.Scheme.Tuner; tc != nil {
		if err := tc.Validate(); err != nil {
			return err
		}
		// The kind decides local-maximum avoidance, so an override that
		// says otherwise would be overwritten without a word.
		if k := c.Scheme.Kind; k != Custom && tc.AvoidLocalMaxima != (k == SelfTuned) {
			return fmt.Errorf("sim: tuner avoid_local_maxima %t contradicts scheme %q, which runs with it %t",
				tc.AvoidLocalMaxima, k, k == SelfTuned)
		}
	}
	return nil
}

// TotalCycles returns the full run length.
func (c Config) TotalCycles() int64 { return c.WarmupCycles + c.MeasureCycles }
