// Package router implements the wormhole-switched router fabric the paper
// evaluates on: per-physical-channel virtual channels with fixed-depth
// edge buffers, a central demand-slotted round-robin arbiter with a
// one-cycle routing delay, a crossbar that moves one flit per output port
// per cycle, one-cycle links, one injection and one delivery channel per
// node, Duato-style deadlock avoidance via an escape virtual channel, and
// Disha-style progressive deadlock recovery via a token-serialized
// deadlock-buffer lane.
package router

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/topology"
)

// This file is the only place the fabric's structure-of-arrays hot state
// may be written: the per-lane occupancy array (occ), the per-node lane
// masks (occMask, boundMask, headMask, latchMask, ownedMask), the
// node-level active bitsets (actWords), and the netCounters sums. The
// counterguard analyzer enforces the restriction; every transition goes
// through the accessors below so the masks, the bitsets and the counters
// can never drift apart.

// netCounters are the network-wide active-set sums the per-cycle stages
// consult to skip whole sweeps in O(1).
type netCounters struct {
	fullBuffers int // completely full countable VC buffers
	latched     int // output latches holding a flit
	ownedOuts   int // output VCs owned by a packet
	occupiedIns int // non-empty input VCs
	pendingIns  int // input VCs whose front is an unrouted header
	srcActive   int // nodes with a packet streaming into injection
}

// initSoA allocates the structure-of-arrays hot state for a fabric of
// the given size. Called once from New; it lives in this file so that
// every write to the guarded arrays — including their construction —
// stays behind the accessor boundary.
func (f *Fabric) initSoA(nodes int) {
	f.occ = make([]int32, nodes*f.lanesIn)
	f.occMask = make([]uint64, nodes)
	f.boundMask = make([]uint64, nodes)
	f.headMask = make([]uint64, nodes)
	f.latchMask = make([]uint64, nodes)
	f.ownedMask = make([]uint64, nodes)
	f.actOccupied.init(nodes)
	f.actPending.init(nodes)
	f.actLatched.init(nodes)
	f.actOwned.init(nodes)
	f.actSrc.init(nodes)
	if f.markHi > 0 {
		words := (nodes + 63) >> 6
		f.nodeOcc = make([]int32, nodes)
		f.congWords = make([]uint64, words)
		f.congStable = make([]uint64, words)
	}
}

// snapshotCongestion copies the live congestion bits into the stable
// set that header pushes mark packets against. It runs at the top of
// every Step, before any stage runs — the only congStable
// write site, so the marking decision for the whole cycle is frozen at
// the cycle boundary.
//
//stcc:hotpath
func (f *Fabric) snapshotCongestion() {
	copy(f.congStable, f.congWords)
}

// activeWords is a bitset with one bit per node ("active words"): the
// per-cycle stages iterate set bits with trailing-zero scans instead of
// walking every router. counterguard pins every write to this file.
type activeWords struct {
	actWords []uint64
}

func (a *activeWords) init(nodes int) {
	a.actWords = make([]uint64, (nodes+63)>>6)
}

//stcc:hotpath
func (a *activeWords) set(i int32) {
	a.actWords[i>>6] |= 1 << uint(i&63)
}

//stcc:hotpath
func (a *activeWords) clearBit(i int32) {
	a.actWords[i>>6] &^= 1 << uint(i&63)
}

// flit is one flow-control unit: the idx-th flit of pkt. arrived is the
// cycle the flit entered its current buffer; the routing arbiter uses it
// to give headers the paper's one-cycle routing delay.
type flit struct {
	pkt     *packet.Packet
	idx     int
	arrived int64
}

//stcc:hotpath
func (f flit) valid() bool { return f.pkt != nil }

//stcc:hotpath
func (f flit) isHead() bool { return f.idx == 0 }

//stcc:hotpath
func (f flit) isTail() bool { return f.idx == f.pkt.Length-1 }

// vcBuffer is one virtual channel's edge buffer: a fixed-capacity FIFO of
// flits, plus the wormhole binding state (which output VC the packet at
// its front has been allocated). Buffers live in a per-fabric arena and
// their flit rings are windows into a shared backing slice (see New);
// a buffer's identity is its arena address, which is stable for the
// fabric's lifetime. The occupancy count itself lives in the fabric's
// contiguous occ array (indexed by gid), so a remote credit check reads
// one hot array element instead of pulling in the whole buffer struct.
type vcBuffer struct {
	fab  *Fabric
	node topology.NodeID
	port int // input port (physical, or the injection port)
	vc   int

	gid  int32 // global input-lane index (node*lanesIn + lane) into fab.occ
	lane uint8 // node-local input-lane index: bit position in the lane masks

	buf  []flit // ring window into the fabric's flit arena, fixed capacity
	head int

	// countable buffers contribute to the global full-buffer metric
	// (physical-channel VCs only, matching the paper's 3072 count).
	countable bool

	// Wormhole binding: set when the front packet's header is routed,
	// cleared when its tail flit leaves the buffer.
	bound    bool
	boundPkt *packet.Packet
	outPort  int
	outVC    int
}

//stcc:hotpath
func (b *vcBuffer) len() int { return int(b.fab.occ[b.gid]) }

//stcc:hotpath
func (b *vcBuffer) cap() int { return len(b.buf) }

//stcc:hotpath
func (b *vcBuffer) full() bool { return int(b.fab.occ[b.gid]) == len(b.buf) }

//stcc:hotpath
func (b *vcBuffer) front() flit {
	if b.fab.occ[b.gid] == 0 {
		return flit{}
	}
	return b.buf[b.head]
}

//stcc:hotpath
func (b *vcBuffer) push(f flit) {
	fab := b.fab
	n := fab.occ[b.gid]
	if int(n) == len(b.buf) {
		panic(fmt.Sprintf("router: overflow of %v", b))
	}
	// Conditional wrap instead of %: the ring index is always already in
	// range, and avoiding the integer division matters on a path run for
	// every flit movement in the network.
	i := b.head + int(n)
	if i >= len(b.buf) {
		i -= len(b.buf)
	}
	b.buf[i] = f
	fab.occ[b.gid] = n + 1
	if n == 0 {
		bit := uint64(1) << b.lane
		fab.occMask[b.node] |= bit
		fab.actOccupied.set(int32(b.node))
		fab.net.occupiedIns++
		if f.idx == 0 {
			fab.headMask[b.node] |= bit
		}
		if !b.bound {
			fab.net.pendingIns++
			fab.actPending.set(int32(b.node))
		}
	}
	if b.countable && int(n)+1 == len(b.buf) {
		fab.net.fullBuffers++
	}
	if fab.markHi > 0 && b.countable {
		// DECbit maintenance. The bit raises against the live per-node
		// occupancy (order-free within a cycle: pushes only grow it, so
		// the crossing happens iff the stage's final occupancy crosses),
		// but the packet mark reads the cycle-stable snapshot, and only
		// on the header flit.
		no := fab.nodeOcc[b.node] + 1
		fab.nodeOcc[b.node] = no
		if no >= fab.markHi {
			fab.congWords[b.node>>6] |= 1 << uint(b.node&63)
		}
		if f.idx == 0 && fab.congStable[b.node>>6]&(1<<uint(b.node&63)) != 0 {
			f.pkt.Marked = true
		}
	}
}

//stcc:hotpath
func (b *vcBuffer) pop() flit {
	fab := b.fab
	n := fab.occ[b.gid]
	if n == 0 {
		panic(fmt.Sprintf("router: underflow of %v", b))
	}
	if b.countable && int(n) == len(b.buf) {
		fab.net.fullBuffers--
	}
	f := b.buf[b.head]
	b.buf[b.head] = flit{}
	b.head++
	if b.head == len(b.buf) {
		b.head = 0
	}
	n--
	fab.occ[b.gid] = n
	bit := uint64(1) << b.lane
	if n == 0 {
		fab.occMask[b.node] &^= bit
		fab.headMask[b.node] &^= bit
		if fab.occMask[b.node] == 0 {
			fab.actOccupied.clearBit(int32(b.node))
		}
		fab.net.occupiedIns--
		if !b.bound {
			fab.net.pendingIns--
			if fab.occMask[b.node]&^fab.boundMask[b.node] == 0 {
				fab.actPending.clearBit(int32(b.node))
			}
		}
	} else if b.buf[b.head].idx == 0 {
		fab.headMask[b.node] |= bit
	} else {
		fab.headMask[b.node] &^= bit
	}
	if fab.markHi > 0 && b.countable {
		// DECbit hysteresis: the bit lowers only once the router has
		// drained to half its mark. Pops only shrink the occupancy
		// within their stage, so clearing is as order-free as setting.
		no := fab.nodeOcc[b.node] - 1
		fab.nodeOcc[b.node] = no
		if no <= fab.markLo {
			fab.congWords[b.node>>6] &^= 1 << uint(b.node&63)
		}
	}
	return f
}

// setBinding records the wormhole route decision for the packet at the
// front of b. The buffer leaves the pending set: its front is no longer
// an unrouted header.
//
//stcc:hotpath
func (b *vcBuffer) setBinding(pkt *packet.Packet, port, vc int) {
	fab := b.fab
	b.bound = true
	b.boundPkt = pkt
	b.outPort = port
	b.outVC = vc
	fab.boundMask[b.node] |= uint64(1) << b.lane
	if fab.occ[b.gid] > 0 {
		fab.net.pendingIns--
		if fab.occMask[b.node]&^fab.boundMask[b.node] == 0 {
			fab.actPending.clearBit(int32(b.node))
		}
	}
}

// clearBinding resets the wormhole route state after a tail departs. Any
// flits still buffered belong to the next packet, whose header is now an
// arbitration candidate again.
//
//stcc:hotpath
func (b *vcBuffer) clearBinding() {
	fab := b.fab
	b.bound = false
	b.boundPkt = nil
	b.outPort = 0
	b.outVC = 0
	fab.boundMask[b.node] &^= uint64(1) << b.lane
	if fab.occ[b.gid] > 0 {
		fab.net.pendingIns++
		fab.actPending.set(int32(b.node))
	}
}

// CountOf implements packet.Location.
//
//stcc:hotpath
func (b *vcBuffer) CountOf(p *packet.Packet) int {
	c := 0
	i := b.head
	for k := 0; k < b.len(); k++ {
		if b.buf[i].pkt == p {
			c++
		}
		if i++; i == len(b.buf) {
			i = 0
		}
	}
	return c
}

// EvictFront implements packet.Location: deadlock recovery removes the
// worm's front flit.
//
//stcc:hotpath
func (b *vcBuffer) EvictFront(p *packet.Packet) {
	f := b.front()
	if f.pkt != p {
		panic(fmt.Sprintf("router: EvictFront of %v: front belongs to %v, not %v", b, f.pkt, p))
	}
	b.pop()
}

func (b *vcBuffer) String() string {
	return fmt.Sprintf("vcbuf(node %d port %d vc %d)", b.node, b.port, b.vc)
}

// latch is the one-flit output register between a router's crossbar and
// its outgoing link (or the delivery channel). A flit spends exactly one
// cycle here: crossbar traversal fills it, link traversal drains it.
type latch struct {
	fab  *Fabric
	node topology.NodeID
	port int
	vc   int
	lane uint8 // node-local output-lane index: bit position in the lane masks
	f    flit
	full bool
}

//stcc:hotpath
func (l *latch) set(f flit) {
	if l.full {
		panic(fmt.Sprintf("router: latch collision at %v", l))
	}
	l.f = f
	l.full = true
	l.fab.latchMask[l.node] |= uint64(1) << l.lane
	l.fab.actLatched.set(int32(l.node))
	l.fab.net.latched++
}

//stcc:hotpath
func (l *latch) clear() flit {
	f := l.f
	l.f = flit{}
	l.full = false
	l.fab.latchMask[l.node] &^= uint64(1) << l.lane
	if l.fab.latchMask[l.node] == 0 {
		l.fab.actLatched.clearBit(int32(l.node))
	}
	l.fab.net.latched--
	return f
}

// CountOf implements packet.Location.
//
//stcc:hotpath
func (l *latch) CountOf(p *packet.Packet) int {
	if l.full && l.f.pkt == p {
		return 1
	}
	return 0
}

// EvictFront implements packet.Location.
//
//stcc:hotpath
func (l *latch) EvictFront(p *packet.Packet) {
	if !l.full || l.f.pkt != p {
		panic(fmt.Sprintf("router: EvictFront of %v: not holding a flit of %v", l, p))
	}
	l.clear()
}

func (l *latch) String() string {
	return fmt.Sprintf("latch(node %d port %d vc %d)", l.node, l.port, l.vc)
}

// srcSlot is the not-yet-injected remainder of the packet currently
// streaming into a node's injection channel.
type srcSlot struct {
	fab  *Fabric
	node topology.NodeID
	pkt  *packet.Packet // nil when no packet is streaming
}

// setPacket starts streaming p; like the other accessors in this file it
// keeps the active-source bitset and counter in lockstep.
//
//stcc:hotpath
func (s *srcSlot) setPacket(p *packet.Packet) {
	s.pkt = p
	s.fab.actSrc.set(int32(s.node))
	s.fab.net.srcActive++
}

// clearPacket ends the stream (tail injected, or evicted by recovery).
//
//stcc:hotpath
func (s *srcSlot) clearPacket() {
	s.pkt = nil
	s.fab.actSrc.clearBit(int32(s.node))
	s.fab.net.srcActive--
}

// CountOf implements packet.Location.
//
//stcc:hotpath
func (s *srcSlot) CountOf(p *packet.Packet) int {
	if s.pkt == p {
		return p.SrcRemaining
	}
	return 0
}

// EvictFront implements packet.Location: recovery consumes source flits
// directly.
//
//stcc:hotpath
func (s *srcSlot) EvictFront(p *packet.Packet) {
	if s.pkt != p || p.SrcRemaining == 0 {
		panic(fmt.Sprintf("router: EvictFront of source %d: not streaming %v", s.node, p))
	}
	p.SrcRemaining--
	if p.SrcRemaining == 0 {
		s.clearPacket()
	}
}

// outVC is one output virtual channel: ownership (a packet holds an
// output VC from header allocation until its tail crosses the link) plus
// the output latch.
type outVC struct {
	owner    *vcBuffer // input VC whose packet owns this output VC
	ownerPkt *packet.Packet
	lat      latch
}

//stcc:hotpath
func (o *outVC) free() bool { return o.ownerPkt == nil }

//stcc:hotpath
func (o *outVC) acquire(b *vcBuffer, pkt *packet.Packet) {
	o.owner = b
	o.ownerPkt = pkt
	fab := o.lat.fab
	fab.ownedMask[o.lat.node] |= uint64(1) << o.lat.lane
	fab.actOwned.set(int32(o.lat.node))
	fab.net.ownedOuts++
}

//stcc:hotpath
func (o *outVC) release() {
	o.owner = nil
	o.ownerPkt = nil
	fab := o.lat.fab
	fab.ownedMask[o.lat.node] &^= uint64(1) << o.lat.lane
	if fab.ownedMask[o.lat.node] == 0 {
		fab.actOwned.clearBit(int32(o.lat.node))
	}
	fab.net.ownedOuts--
}
