// Package congestion defines the source-throttling contract the
// simulator consults before letting a node inject a new packet, the
// name-keyed factory registry every scheme constructs through, Params,
// the one definition of a scheme (its wire form, which sim.Scheme
// aliases, handed to a factory as Env.Params; a factory reads the
// scheme's name from Env.Kind), and the local controllers: no control
// (base), the At-Least-One local-estimation scheme (alo, Baydal, López
// & Duato), the busy-VC limit (busyvc), the AIMD injection window
// (aimd) and notification-based throttling (notify). The paper's global
// self-tuned controller lives in package core and registers itself
// there.
package congestion

import (
	"repro/internal/topology"
)

// FeedbackKind discriminates the packet events the engine delivers to a
// Controller.
type FeedbackKind uint8

// Feedback event kinds.
const (
	// PacketInjected fires when a source's packet enters its injection
	// channel (after the controller itself allowed it).
	PacketInjected FeedbackKind = iota
	// PacketDelivered fires when a packet reaches its destination;
	// Marked echoes whether any router buffered one of its flits while
	// congestion-marked (DECbit-style end-to-end feedback).
	PacketDelivered
)

// FeedbackEvent is one observation delivered to a Controller. Events are
// delivered deterministically: injection events in the engine's
// node-visit order, delivery events in the fabric's delivery order.
// Controllers may therefore keep per-source state without any
// synchronization.
type FeedbackEvent struct {
	Kind FeedbackKind
	// Cycle is when the event was observed at the source.
	Cycle int64
	// Source is the injecting node the event concerns.
	Source topology.NodeID
	// Router is the delivering destination (PacketDelivered).
	Router topology.NodeID
	// Marked carries the DECbit congestion mark.
	Marked bool
}

// Controller is the one decision-layer contract: the engine asks it
// whether a node may begin injecting a new packet, ticks it once per
// cycle, and feeds it packet events. Throttling applies only to packet
// starts: once a packet's head flit has entered the injection channel,
// the rest of the worm always follows. Stateless gates implement Tick
// and Observe as no-ops. None of the three may allocate in steady
// state: the engine calls them from its cycle loop.
type Controller interface {
	// AllowInjection reports whether node may start injecting a packet
	// destined for dst at cycle now.
	AllowInjection(now int64, node, dst topology.NodeID) bool
	// Tick is called once per cycle, after the side-band has delivered
	// the cycle's snapshots and before any injection decision, so a
	// cycle's decisions all see the same controller state.
	Tick(now int64)
	// Observe delivers one packet event.
	Observe(ev FeedbackEvent)
}

// LocalView exposes the router-local channel state that locally-estimating
// throttlers (such as ALO) inspect. The simulation engine implements it.
type LocalView interface {
	// FreeVCs returns how many output virtual channels on the given
	// physical port of node are free (not currently owned by a packet).
	FreeVCs(node topology.NodeID, port int) int
	// VCsPerPort returns the number of virtual channels per physical
	// channel.
	VCsPerPort() int
}

// GlobalView exposes network-wide state alongside LocalView. The router
// fabric implements it. Aggregate congestion reaches the global schemes
// through the side-band; notify reads the routers' congestion bits.
type GlobalView interface {
	// Nodes returns the network size.
	Nodes() int
	// CongestionBits returns the routers' DECbit congestion bits, one
	// per node (bit n%64 of word n/64), as the last network cycle left
	// them; nil when marking is disabled. Read-only.
	CongestionBits() []uint64
}

// NotificationUser marks the notify controller. The simulator never
// reads it; the benchmark's traced engine (benchmark/traced.go) checks
// it to refuse notify.
type NotificationUser interface {
	UsesNotifications()
}

// The local schemes self-register; the global ones register from
// package core, next to their implementation.
func init() {
	Register("base", 0, func(Env) (Controller, error) { return None{}, nil })
	Register("alo", 0, func(env Env) (Controller, error) {
		return NewALO(env.Topo, env.Local), nil
	})
	Register("busyvc", BusyLimitField, func(env Env) (Controller, error) {
		limit := env.Params.BusyLimit
		if limit == 0 {
			limit = env.Topo.PhysPorts() * env.Local.VCsPerPort() / 2
		}
		return NewBusyVC(env.Topo, env.Local, limit), nil
	})
}

// None is the Base configuration: never throttle.
type None struct{}

// AllowInjection implements Controller.
func (None) AllowInjection(int64, topology.NodeID, topology.NodeID) bool { return true }

// Tick implements Controller.
func (None) Tick(int64) {}

// Observe implements Controller.
func (None) Observe(FeedbackEvent) {}

// ALO is the At-Least-One congestion control scheme: a node may inject
// when, considering the physical channels useful to the new packet (those
// on some minimal path to its destination), either
//
//   - at least one virtual channel is free on every useful channel, or
//   - at least one useful channel has all its virtual channels free.
//
// Otherwise the node throttles. ALO estimates global congestion purely
// from local back-pressure symptoms, which is exactly the limitation the
// paper's global scheme addresses.
type ALO struct {
	topo *topology.Torus
	view LocalView
	buf  []int
}

// NewALO returns an ALO controller over the given topology and local view.
func NewALO(topo *topology.Torus, view LocalView) *ALO {
	return &ALO{topo: topo, view: view}
}

// AllowInjection implements Controller.
func (a *ALO) AllowInjection(_ int64, node, dst topology.NodeID) bool {
	a.buf = a.topo.MinimalPorts(node, dst, a.buf[:0])
	if len(a.buf) == 0 {
		return true // destination is local; no network resources needed
	}
	vcs := a.view.VCsPerPort()
	everyHasOne := true
	someAllFree := false
	for _, p := range a.buf {
		free := a.view.FreeVCs(node, p)
		if free == 0 {
			everyHasOne = false
		}
		if free == vcs {
			someAllFree = true
		}
	}
	return everyHasOne || someAllFree
}

// Tick implements Controller.
func (a *ALO) Tick(int64) {}

// Observe implements Controller.
func (a *ALO) Observe(FeedbackEvent) {}

// BusyVC is the López et al. local throttling heuristic the paper cites:
// a node estimates congestion from the number of busy output virtual
// channels on its own router and throttles injection when the busy count
// exceeds a fixed limit. Unlike ALO it ignores which channels are useful
// to the new packet; unlike the paper's scheme it sees no global state.
type BusyVC struct {
	topo  *topology.Torus
	view  LocalView
	limit int
}

// NewBusyVC returns a BusyVC controller that allows injection while fewer
// than limit output VCs (over all physical ports) are busy.
func NewBusyVC(topo *topology.Torus, view LocalView, limit int) *BusyVC {
	return &BusyVC{topo: topo, view: view, limit: limit}
}

// AllowInjection implements Controller.
func (l *BusyVC) AllowInjection(_ int64, node, _ topology.NodeID) bool {
	busy := 0
	vcs := l.view.VCsPerPort()
	for p := 0; p < l.topo.PhysPorts(); p++ {
		busy += vcs - l.view.FreeVCs(node, p)
	}
	return busy < l.limit
}

// Tick implements Controller.
func (l *BusyVC) Tick(int64) {}

// Observe implements Controller.
func (l *BusyVC) Observe(FeedbackEvent) {}
