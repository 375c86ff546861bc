package sideband

import (
	"repro/internal/topology"
)

// Notifier models point-to-point congestion notifications on the
// side-band: when a router's congestion bit rises, a notice travels to
// every source over the same dedicated wiring the snapshot gather uses,
// arriving after HopDelay cycles per minimal-route hop. Delivery is a
// timing wheel keyed by arrival cycle: each slot holds the sources a
// notice reaches in that cycle. The maximum in-flight delay is HopDelay
// times the torus diameter, so a wheel one slot longer can never wrap
// onto pending notices. Slots keep their backing arrays between
// revolutions, so steady-state broadcast and delivery do not allocate.
type Notifier struct {
	topo  *topology.Torus
	delay int64 // cycles per hop
	wheel [][]topology.NodeID
}

// NewNotifier returns a notifier over topo with the given per-hop
// delay (>= 1, the side-band's HopDelay).
func NewNotifier(topo *topology.Torus, hopDelay int) *Notifier {
	if hopDelay < 1 {
		hopDelay = 1
	}
	diameter := topo.N() * (topo.K() / 2)
	return &Notifier{
		topo:  topo,
		delay: int64(hopDelay),
		wheel: make([][]topology.NodeID, int64(diameter)*int64(hopDelay)+2),
	}
}

// Broadcast queues a notice from router from to every source, each
// arriving delay*distance cycles after now (minimum one cycle, so the
// origin's own source still learns at a cycle boundary). now is the
// cycle whose network step raised the bit; Deliver at each later cycle
// drains what has arrived.
//
//stcc:hotpath
func (n *Notifier) Broadcast(now int64, from topology.NodeID) {
	nodes := n.topo.Nodes()
	for to := 0; to < nodes; to++ {
		d := n.delay * int64(n.topo.Distance(from, topology.NodeID(to)))
		if d == 0 {
			d = 1
		}
		slot := int((now + d) % int64(len(n.wheel)))
		//stcc:hotalloc amortized slot growth; each slot retains its high-water backing array across wheel revolutions
		n.wheel[slot] = append(n.wheel[slot], topology.NodeID(to))
	}
}

// Deliver drains the notices arriving at cycle now and returns the
// sources they reach, in queue order (broadcast order, sources
// ascending within one broadcast). The slice is the slot's retained
// backing array: read it before the next Broadcast.
//
//stcc:hotpath
func (n *Notifier) Deliver(now int64) []topology.NodeID {
	slot := int(now % int64(len(n.wheel)))
	due := n.wheel[slot]
	n.wheel[slot] = due[:0]
	return due
}
