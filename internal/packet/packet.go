// Package packet defines packets and flits (flow control units) for
// wormhole-switched networks, along with the per-packet lifecycle state
// the simulator tracks: creation, injection, delivery and routing mode.
// Where a worm's flits rest is the router's state, not the packet's:
// Disha-style deadlock recovery finds a blocked worm by walking the
// router's output-VC ownership upstream from its header.
package packet

import (
	"fmt"

	"repro/internal/topology"
)

// ID uniquely identifies a packet within one simulation run.
type ID int64

// Mode tracks how a packet is currently being routed.
type Mode uint8

const (
	// Adaptive packets use fully adaptive minimal routing on the
	// adaptive virtual channels.
	Adaptive Mode = iota
	// Escape packets have entered the deadlock-free escape lane
	// (dimension-order over the mesh) and stay there until delivery.
	Escape
	// Suspected packets have been blocked past the deadlock timeout:
	// they are committed to recovery, frozen in place, and queued for
	// the recovery token. Frozen worms are what clog a saturated
	// network and collapse its throughput.
	Suspected
	// Recovering packets hold the token and are being drained through
	// the Disha deadlock-buffer lane.
	Recovering
)

// Frozen reports whether the mode stops all normal flit movement (the
// packet is committed to the recovery lane).
func (m Mode) Frozen() bool { return m == Suspected || m == Recovering }

func (m Mode) String() string {
	switch m {
	case Adaptive:
		return "adaptive"
	case Escape:
		return "escape"
	case Suspected:
		return "suspected"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Packet is one message: Length flits that snake through the network.
// Flits are represented implicitly: the router names one by its
// packet's slot in the fabric's packet table and its index.
type Packet struct {
	ID     ID
	Src    topology.NodeID
	Dst    topology.NodeID
	Length int

	// CreatedAt is the cycle the workload generated the packet (it then
	// waits in the source queue). InjectedAt is the cycle its head flit
	// entered the injection channel; DeliveredAt the cycle its tail flit
	// left through the delivery channel (or recovery lane). Unset values
	// are -1.
	CreatedAt   int64
	InjectedAt  int64
	DeliveredAt int64

	// Mode is the packet's current routing mode.
	Mode Mode

	// LastProgress is the last cycle any flit of this packet advanced
	// (was injected, routed, or moved through a crossbar or link).
	// Deadlock detection times out on this.
	LastProgress int64

	// Hops counts the routers at which the head flit has been routed.
	Hops int

	// SrcRemaining counts flits not yet injected (still at the source).
	// Managed by the router engine.
	SrcRemaining int

	// Consumed counts flits that have left the network through the
	// delivery channel or the recovery lane. Managed by the router
	// engine; Consumed == Length once the packet is delivered.
	Consumed int

	// Marked is the DECbit congestion mark: set when the packet's header
	// was buffered at a router whose congestion bit was up, carried to
	// the destination and echoed to the source in the delivery feedback.
	// Managed by the router engine; always false unless marking is
	// enabled (router.Config.CongestMark).
	Marked bool

	// recycled marks a packet that has been returned to a Pool and not
	// yet handed out again. A recycled packet must never be referenced
	// by network state; the router's CheckInvariants reports any that
	// is (use-after-recycle).
	recycled bool
}

// New returns a packet of length flits from src to dst created at cycle
// now. Length must be positive.
func New(id ID, src, dst topology.NodeID, length int, now int64) *Packet {
	p := new(Packet)
	p.reset(id, src, dst, length, now)
	return p
}

// reset reinitializes a recycled packet in place, as New would.
//
//stcc:hotpath
func (p *Packet) reset(id ID, src, dst topology.NodeID, length int, now int64) {
	if length <= 0 {
		panic(fmt.Sprintf("packet: non-positive length %d", length))
	}
	*p = Packet{
		ID: id, Src: src, Dst: dst, Length: length,
		CreatedAt: now, InjectedAt: -1, DeliveredAt: -1,
		LastProgress: now,
		SrcRemaining: length,
	}
}

// Recycled reports whether the packet currently sits on a Pool free
// list. Network state holding a recycled packet is a use-after-recycle
// bug.
func (p *Packet) Recycled() bool { return p.recycled }

// Delivered reports whether the whole packet has left the network.
func (p *Packet) Delivered() bool { return p.DeliveredAt >= 0 }

// NetworkLatency is the cycles from head injection to tail delivery, or
// -1 if the packet has not completed.
func (p *Packet) NetworkLatency() int64 {
	if p.DeliveredAt < 0 || p.InjectedAt < 0 {
		return -1
	}
	return p.DeliveredAt - p.InjectedAt
}

// TotalLatency is the cycles from creation (entering the source queue) to
// tail delivery, or -1 if the packet has not completed.
func (p *Packet) TotalLatency() int64 {
	if p.DeliveredAt < 0 {
		return -1
	}
	return p.DeliveredAt - p.CreatedAt
}

// Progress marks that the packet advanced at cycle now.
//
//stcc:hotpath
func (p *Packet) Progress(now int64) { p.LastProgress = now }

// BlockedFor returns how many cycles the packet has gone without progress
// as of cycle now.
//
//stcc:hotpath
func (p *Packet) BlockedFor(now int64) int64 { return now - p.LastProgress }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %d->%d len %d %s", p.ID, p.Src, p.Dst, p.Length, p.Mode)
}
