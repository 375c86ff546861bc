// Package packet defines packets and flits (flow control units) for
// wormhole-switched networks, along with the per-packet lifecycle state
// the simulator tracks: creation, injection, delivery, routing mode, and
// the trail of buffers the head flit has visited (used by Disha-style
// deadlock recovery to locate and drain a blocked worm).
package packet

import (
	"fmt"

	"repro/internal/topology"
)

// ID uniquely identifies a packet within one simulation run.
type ID int64

// FlitType distinguishes the roles of flits within a packet.
type FlitType uint8

const (
	// Head carries the routing information; it allocates channels.
	Head FlitType = iota
	// Body follows the path the head reserved.
	Body
	// Tail releases channels as it passes.
	Tail
	// Only is a single-flit packet's head-and-tail flit.
	Only
)

func (t FlitType) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case Only:
		return "only"
	default:
		return fmt.Sprintf("FlitType(%d)", uint8(t))
	}
}

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

// Location is any place a worm's flits can rest: a virtual-channel
// buffer, an output latch, or the not-yet-injected remainder at the
// source. Implementations live in the router engine; deadlock recovery
// uses them to drain a worm in FIFO order.
type Location interface {
	// CountOf returns how many of p's flits the location currently
	// holds.
	CountOf(p *Packet) int
	// EvictFront removes the front-most flit of p from the location. It
	// panics if the front flit does not belong to p (a conservation
	// bug: a worm's flits are always contiguous at the front of every
	// location it occupies).
	EvictFront(p *Packet)
}

// Packet is one message: Length flits that snake through the network.
// Flits are represented implicitly as (packet, index) pairs.
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

	// Trail is the sequence of buffer locations the head flit has
	// entered, in order (injection channel first). Managed by the router
	// engine; deadlock recovery walks it backwards to drain the worm.
	Trail []Location

	// recycled marks a packet that has been returned to a Pool and not
	// yet handed out again. A recycled packet must never be referenced
	// by network state; the router's CheckInvariants reports any that
	// is (use-after-recycle).
	recycled bool
}

// New returns a packet of length flits from src to dst created at cycle
// now. Length must be positive.
func New(id ID, src, dst topology.NodeID, length int, now int64) *Packet {
	if length <= 0 {
		panic(fmt.Sprintf("packet: non-positive length %d", length))
	}
	return &Packet{
		ID: id, Src: src, Dst: dst, Length: length,
		CreatedAt: now, InjectedAt: -1, DeliveredAt: -1,
		LastProgress: now,
		SrcRemaining: length,
	}
}

// reset reinitializes a recycled packet in place, as New would, keeping
// the Trail backing array so steady-state reuse does not reallocate it.
//
//stcc:hotpath
func (p *Packet) reset(id ID, src, dst topology.NodeID, length int, now int64) {
	if length <= 0 {
		panic(fmt.Sprintf("packet: non-positive length %d", length))
	}
	trail := p.Trail[:0]
	*p = Packet{
		ID: id, Src: src, Dst: dst, Length: length,
		CreatedAt: now, InjectedAt: -1, DeliveredAt: -1,
		LastProgress: now,
		SrcRemaining: length,
		Trail:        trail,
	}
}

// Recycled reports whether the packet currently sits on a Pool free
// list. Network state holding a recycled packet is a use-after-recycle
// bug.
func (p *Packet) Recycled() bool { return p.recycled }

// FlitTypeAt returns the type of the i-th flit (0-based).
//
//stcc:hotpath
func (p *Packet) FlitTypeAt(i int) FlitType {
	switch {
	case p.Length == 1:
		return Only
	case i == 0:
		return Head
	case i == p.Length-1:
		return Tail
	default:
		return Body
	}
}

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

// PushTrail records that the head flit entered loc.
//
//stcc:hotpath
func (p *Packet) PushTrail(loc Location) { p.Trail = append(p.Trail, loc) }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d %d->%d len %d %s", p.ID, p.Src, p.Dst, p.Length, p.Mode)
}
