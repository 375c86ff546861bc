// Package trace is the vocabulary of the router fabric's OnEvent hook:
// the packet lifecycle events it emits (injections, routing decisions,
// deliveries, deadlock suspicion and recovery). The hook is nil unless
// a caller, such as a test asserting on an event sequence, sets it.
package trace

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Kind classifies a lifecycle event.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	// Injected: the packet's head flit entered the injection channel.
	Injected Kind = iota
	// Routed: a router's arbiter allocated an output VC to the header.
	Routed
	// Delivered: the packet's tail flit left the network.
	Delivered
	// Suspected: the packet timed out and froze awaiting the recovery
	// token.
	Suspected
	// RecoveryStarted: the packet acquired the token and began draining
	// through the deadlock-buffer lane.
	RecoveryStarted
	// RecoveryCompleted: the recovered packet's tail reached its
	// destination and the token was released.
	RecoveryCompleted
)

func (k Kind) String() string {
	switch k {
	case Injected:
		return "injected"
	case Routed:
		return "routed"
	case Delivered:
		return "delivered"
	case Suspected:
		return "suspected"
	case RecoveryStarted:
		return "recovery-start"
	case RecoveryCompleted:
		return "recovery-done"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle step.
type Event struct {
	Cycle  int64
	Kind   Kind
	Packet packet.ID
	Src    topology.NodeID
	Dst    topology.NodeID
	// Node is where the event happened (the routing router, the
	// suspicion site, ...); equal to Src for injections and Dst for
	// deliveries.
	Node topology.NodeID
}

func (e Event) String() string {
	return fmt.Sprintf("%8d %-14s pkt %d %d->%d @ node %d",
		e.Cycle, e.Kind, e.Packet, e.Src, e.Dst, e.Node)
}
