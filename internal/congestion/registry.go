package congestion

import (
	"fmt"
	"sort"

	"repro/internal/sideband"
	"repro/internal/topology"
)

// Params carries the scheme-tunable knobs a factory may consult, in the
// congestion package's own vocabulary so sim.Scheme can stay a plain
// configuration struct. Zero values mean "use the scheme's default";
// each factory resolves its own defaults so the resolution lives next
// to the controller it configures.
type Params struct {
	// BusyLimit is the busy-VC injection limit (busyvc); zero selects
	// half the node's output VCs.
	BusyLimit int
	// StaticThreshold is the fixed full-buffer threshold (static).
	StaticThreshold float64
	// Estimator names the global-congestion estimator ("", "linear" or
	// "last"); empty means linear.
	Estimator string
	// TuningPeriod in cycles for the global schemes; zero means three
	// gather durations.
	TuningPeriod int64
	// Tuner optionally overrides the tuning parameters. It is opaque
	// here (*core.TunerConfig in practice) so the congestion contract
	// does not depend on the package implementing the paper's tuner.
	Tuner any
	// KeepTrace retains the global schemes' threshold trace.
	KeepTrace bool
	// WindowMin and WindowMax bound the per-source injection window
	// (aimd); zero selects the scheme defaults.
	WindowMin, WindowMax int
	// Staleness is how long a delivered congestion notification keeps
	// gating injection (notify), in cycles; zero selects two gather
	// durations.
	Staleness int64
}

// Env is everything a Factory may wire a controller to: the topology,
// the router-local and global views, the side-band network (for
// snapshot subscription and timing parameters), and the scheme
// parameters. Kind is the registered name being constructed, so one
// factory can serve several closely related schemes.
type Env struct {
	Kind   string
	Topo   *topology.Torus
	Local  LocalView
	Global GlobalView
	Side   *sideband.Network
	Params Params
}

// Factory constructs the controller of one run: a registered scheme's,
// or a custom scheme's (sim.Scheme.Custom). It is called once per run,
// so a controller never carries state from one run into the next.
type Factory func(env Env) (Controller, error)

// factories is the name-keyed scheme registry. Registration happens in
// package init functions (schemes self-register next to their
// implementation), so the map is read-only after program start and
// needs no locking.
var factories = map[string]Factory{}

// Register adds a scheme factory under name. Schemes self-register from
// init — e.g. congestion.Register("aimd", ...) — so the simulator's
// scheme validation and construction derive from one table. Register
// panics on an empty name or a duplicate: both are programming errors
// that must fail at process start, not at first use.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("congestion: Register needs a name and a factory")
	}
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("congestion: scheme %q registered twice", name))
	}
	factories[name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	f, ok := factories[name]
	return f, ok
}

// Registered reports whether a scheme factory exists under name.
func Registered(name string) bool {
	_, ok := factories[name]
	return ok
}

// Names returns the registered scheme names in sorted order.
func Names() []string {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
