package congestion

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sideband"
	"repro/internal/topology"
)

// SchemeKind names a congestion control scheme: a registered factory's
// name, or "custom" for a Params.Custom factory.
type SchemeKind string

// Params is the one definition of a congestion scheme. It is the
// scheme's wire form: sim.Scheme is an alias of it, its json tags are
// the wire names, and the optional knobs are omitempty, so configs that
// predate a knob keep their encoding and fingerprint. The engine hands
// it to the scheme's factory unchanged, as Env.Params. Zero values mean
// "use the scheme's default"; each factory resolves its own defaults,
// next to the controller it configures. Which kinds read a field, and
// which of its values they accept, is declared once, in each kind's
// Register call beside its factory (see Find). A factory reads the
// scheme's name from Env.Kind.
type Params struct {
	Kind SchemeKind `json:"kind"`
	// StaticThreshold is the fixed full-buffer threshold.
	StaticThreshold float64 `json:"static_threshold,omitempty"`
	// BusyLimit is the busy-VC injection limit; zero selects half the
	// node's output VCs.
	BusyLimit int `json:"busy_limit,omitempty"`
	// Estimator names the global-congestion estimator
	// (core.LinearEstimator or core.LastValueEstimator); empty means
	// linear.
	Estimator string `json:"estimator,omitempty"`
	// TuningPeriod is the cycles between threshold decisions; zero means
	// three gather durations (the paper's 96 cycles for the 16-ary
	// 2-cube).
	TuningPeriod int64 `json:"tuning_period,omitempty"`
	// Tuner overrides the tuning parameters; nil means the paper
	// defaults for the configured network.
	Tuner *TunerConfig `json:"tuner,omitempty"`
	// KeepTrace retains the per-tuning-period threshold trace.
	KeepTrace bool `json:"keep_trace,omitempty"`
	// WindowMin and WindowMax bound the per-source injection window, in
	// packets; zero selects the scheme defaults (1 and 64).
	WindowMin int `json:"window_min,omitempty"`
	WindowMax int `json:"window_max,omitempty"`
	// MarkThreshold is the router occupancy fraction at which the
	// DECbit congestion bit sets; zero selects sim.DefaultMarkThreshold
	// for a registered kind that reads it, and no marking otherwise. The
	// bit clears at half the mark (hysteresis).
	MarkThreshold float64 `json:"mark_threshold,omitempty"`
	// Staleness is how long a delivered congestion notification keeps
	// gating injection, in cycles; zero selects two gather durations.
	Staleness int64 `json:"staleness,omitempty"`
	// Custom builds the controller when Kind is "custom". It is called
	// once per run with the Env the registered factories receive, so
	// it wires the controller to env.Local or env.Side itself. It has
	// no wire form.
	Custom Factory `json:"-"`
}

// TunerConfig parameterizes the self-tuning mechanism (package core's
// Tuner). The zero value is not valid; use core.DefaultTunerConfig.
// The json tags are its wire names inside a scheme's tuner.
type TunerConfig struct {
	// TotalBuffers is the network-wide virtual-channel buffer count
	// (3072 for the paper's 16-ary 2-cube with 3 VCs); thresholds are
	// clamped to [0, TotalBuffers].
	TotalBuffers int `json:"total_buffers"`
	// InitialFraction sets the starting threshold as a fraction of
	// TotalBuffers (paper: "an initial value based on network
	// parameters, e.g. 10% of all buffers").
	InitialFraction float64 `json:"initial_fraction"`
	// IncrementFraction and DecrementFraction are the constant additive
	// tuning steps (paper: 1% and 4% of all buffers; 30 and 122 for the
	// 16-ary 2-cube — marginally better when the decrement is larger).
	IncrementFraction float64 `json:"increment_fraction"`
	DecrementFraction float64 `json:"decrement_fraction"`
	// DropFraction defines a "drop in bandwidth": throughput below
	// DropFraction * previous period's throughput (paper: 75%).
	DropFraction float64 `json:"drop_fraction"`
	// RecoverFraction triggers local-maximum avoidance: throughput below
	// RecoverFraction * best observed period resets the threshold to
	// min(T_max, N_max).
	RecoverFraction float64 `json:"recover_fraction"`
	// ResetPeriods is r: after this many consecutive corrective resets
	// the remembered maximum is recomputed from scratch, letting the
	// scheme adapt to a changed communication pattern (paper: r = 5).
	ResetPeriods int `json:"reset_periods"`
	// AvoidLocalMaxima enables the Section 4.2 mechanism. Disabling it
	// yields the "hill climbing only" configuration of Figure 4. The
	// scheme kind decides it: true for tune, false for tune-hillclimb.
	AvoidLocalMaxima bool `json:"avoid_local_maxima"`
}

// Validate checks the configuration.
func (c TunerConfig) Validate() error {
	if c.TotalBuffers <= 0 {
		return fmt.Errorf("congestion: TotalBuffers must be positive, got %d", c.TotalBuffers)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"InitialFraction", c.InitialFraction},
		{"IncrementFraction", c.IncrementFraction},
		{"DecrementFraction", c.DecrementFraction},
	} {
		if f.v <= 0 || f.v > 1 {
			return fmt.Errorf("congestion: %s must be in (0,1], got %g", f.name, f.v)
		}
	}
	if c.DropFraction <= 0 || c.DropFraction >= 1 {
		return fmt.Errorf("congestion: DropFraction must be in (0,1), got %g", c.DropFraction)
	}
	if c.RecoverFraction <= 0 || c.RecoverFraction >= 1 {
		return fmt.Errorf("congestion: RecoverFraction must be in (0,1), got %g", c.RecoverFraction)
	}
	if c.ResetPeriods < 1 {
		return fmt.Errorf("congestion: ResetPeriods must be >= 1, got %d", c.ResetPeriods)
	}
	return nil
}

// Env is everything a Factory may wire a controller to: the topology,
// the router-local and global views, the side-band network (for
// snapshot subscription and timing parameters), and the scheme
// parameters. Kind is the registered name being constructed, so one
// factory can serve several closely related schemes; factories read it
// rather than Params.Kind, which a caller may leave empty.
type Env struct {
	Kind   string
	Topo   *topology.Torus
	Local  LocalView
	Global GlobalView
	Side   *sideband.Network
	Params Params
}

// Factory constructs the controller of one run: a registered scheme's,
// or a custom scheme's (Params.Custom). It is called once per run,
// so a controller never carries state from one run into the next.
type Factory func(env Env) (Controller, error)

// Fields is a set of Params' optional fields, one bit each.
type Fields uint16

// The optional Params fields, in Params' field order.
const (
	StaticThresholdField Fields = 1 << iota
	BusyLimitField
	EstimatorField
	TuningPeriodField
	TunerField
	KeepTraceField
	WindowMinField
	WindowMaxField
	MarkThresholdField
	StalenessField
)

// fieldNames are the fields' wire names, in bit order.
var fieldNames = [...]string{"static_threshold", "busy_limit", "estimator", "tuning_period",
	"tuner", "keep_trace", "window_min", "window_max", "mark_threshold", "staleness"}

// String lists the set's wire names.
func (s Fields) String() string {
	var names []string
	for i, name := range fieldNames {
		if s&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, ", ")
}

// SetFields returns the optional fields p sets to a non-zero value.
func (p *Params) SetFields() (s Fields) {
	for i, set := range [...]bool{p.StaticThreshold != 0, p.BusyLimit != 0, p.Estimator != "", p.TuningPeriod != 0,
		p.Tuner != nil, p.KeepTrace, p.WindowMin != 0, p.WindowMax != 0, p.MarkThreshold != 0, p.Staleness != 0} {
		if set {
			s |= 1 << i
		}
	}
	return s
}

// Check refuses the Params values a registered scheme cannot run with,
// at side-band gather duration g in a run of cycles cycles. Config
// validation calls it last, with p.Kind the registered name and no field
// set that the scheme does not read. A nil Check accepts every value.
type Check func(p Params, g, cycles int64) error

type scheme struct {
	factory Factory
	reads   Fields
	check   Check
}

// schemes is the name-keyed scheme registry: each entry a factory, the
// fields it reads and its value check. Registration happens in package
// init functions (schemes self-register next to their implementation),
// so the map is read-only after program start and needs no locking.
var schemes = map[string]scheme{}

// Register adds a scheme factory under name, with the Params fields it
// reads and the check of their values. Schemes self-register from init,
// next to their implementation, so the simulator's scheme validation and
// construction derive from one table. Register panics on an empty name
// or a duplicate: both are programming errors that must fail at process
// start, not at first use.
func Register(name string, reads Fields, check Check, f Factory) {
	if name == "" || f == nil {
		panic("congestion: Register needs a name and a factory")
	}
	if _, dup := schemes[name]; dup {
		panic(fmt.Sprintf("congestion: scheme %q registered twice", name))
	}
	schemes[name] = scheme{f, reads, check}
}

// Find returns name's factory, the fields it reads and its value check.
func Find(name string) (Factory, Fields, Check, bool) {
	s, ok := schemes[name]
	return s.factory, s.reads, s.check, ok
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	s, ok := schemes[name]
	return s.factory, ok
}

// Names returns the registered scheme names in sorted order.
func Names() []string {
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
