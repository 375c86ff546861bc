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

// initSoA builds the structure-of-arrays hot state for a fabric of the
// given size, zeroed, in old's arrays where they are large enough.
// Called once from NewReusing; it lives in this file so that every write
// to the guarded arrays — including their construction — stays behind
// the accessor boundary.
func (f *Fabric) initSoA(nodes int, old *Fabric) {
	f.occ = reuse(old.occ, nodes*f.lanesIn)
	f.occMask = reuse(old.occMask, nodes)
	f.boundMask = reuse(old.boundMask, nodes)
	f.headMask = reuse(old.headMask, nodes)
	f.latchMask = reuse(old.latchMask, nodes)
	f.ownedMask = reuse(old.ownedMask, nodes)
	f.actOccupied.init(nodes, old.actOccupied)
	f.actPending.init(nodes, old.actPending)
	f.actLatched.init(nodes, old.actLatched)
	f.actOwned.init(nodes, old.actOwned)
	f.actSrc.init(nodes, old.actSrc)
	if f.markHi > 0 {
		words := (nodes + 63) >> 6
		f.nodeOcc = reuse(old.nodeOcc, nodes)
		f.congWords = reuse(old.congWords, words)
		f.congStable = reuse(old.congStable, words)
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

func (a *activeWords) init(nodes int, old activeWords) {
	a.actWords = reuse(old.actWords, (nodes+63)>>6)
}

//stcc:hotpath
func (a *activeWords) set(i int32) {
	a.actWords[i>>6] |= 1 << uint(i&63)
}

//stcc:hotpath
func (a *activeWords) clearBit(i int32) {
	a.actWords[i>>6] &^= 1 << uint(i&63)
}

// flit is one flow-control unit: the idx-th flit of pkt. It is 16
// bytes: a header's arrival cycle, which the routing arbiter's one-cycle
// delay needs, is read off its buffer instead (vcBuffer.arrivedNow).
type flit struct {
	pkt *packet.Packet
	idx int
}

//stcc:hotpath
func (f flit) valid() bool { return f.pkt != nil }

//stcc:hotpath
func (f flit) isHead() bool { return f.idx == 0 }

//stcc:hotpath
func (f flit) isTail() bool { return f.idx == f.pkt.Length-1 }

// vcBuffer is one virtual channel's edge buffer: a fixed-capacity FIFO of
// flits, plus the wormhole binding state (which output VC the packet at
// its front has been allocated). Buffers live in a per-fabric arena,
// node-major by lane (bufs[node*lanesIn+lane]); a buffer's identity is
// its arena address, which is stable for the fabric's lifetime. Its flit
// ring is the BufDepth slots of the fabric's one flit arena starting at
// ring. The occupancy count itself lives in the fabric's contiguous occ
// array (indexed by gid), so a remote credit check reads one hot array
// element instead of pulling in the whole buffer struct. Narrow fields
// keep the struct at 48 bytes.
type vcBuffer struct {
	fab *Fabric

	// Wormhole binding: set when the front packet's header is routed,
	// cleared when its tail flit leaves the buffer.
	boundPkt *packet.Packet

	// lastPush is the cycle of the most recent push. A buffer takes at
	// most one flit per cycle (from its one upstream latch, or from the
	// injection stream), which is what makes arrivedNow exact.
	lastPush int64

	node int32 // router index
	gid  int32 // global input-lane index (node*lanesIn + lane) into fab.occ
	ring int32 // offset of the buffer's first slot in fab.flits
	head int32 // ring index of the front flit

	port uint8 // input port (physical, or the injection port)
	vc   uint8
	lane uint8 // node-local input-lane index: bit position in the lane masks

	// countable buffers contribute to the global full-buffer metric
	// (physical-channel VCs only, matching the paper's 3072 count).
	countable bool

	bound   bool
	outPort uint8
	outVC   uint8
}

//stcc:hotpath
func (b *vcBuffer) len() int { return int(b.fab.occ[b.gid]) }

//stcc:hotpath
func (b *vcBuffer) full() bool { return b.fab.occ[b.gid] == b.fab.depth }

// at returns the i-th flit from the front (i < len).
//
//stcc:hotpath
func (b *vcBuffer) at(i int32) flit {
	depth := b.fab.depth
	j := b.head + i
	if j >= depth {
		j -= depth
	}
	return b.fab.flits[b.ring+j]
}

//stcc:hotpath
func (b *vcBuffer) front() flit {
	if b.fab.occ[b.gid] == 0 {
		return flit{}
	}
	return b.fab.flits[b.ring+b.head]
}

// arrivedNow reports whether the front flit entered the buffer this
// cycle. The flit pushed this cycle is the front exactly when it is the
// only flit: a flit ahead of it arrived in an earlier cycle, and none
// can arrive behind it until the next one.
//
//stcc:hotpath
func (b *vcBuffer) arrivedNow() bool {
	return b.lastPush == b.fab.now && b.fab.occ[b.gid] == 1
}

//stcc:hotpath
func (b *vcBuffer) push(f flit) {
	fab := b.fab
	n := fab.occ[b.gid]
	if n == fab.depth {
		panic(fmt.Sprintf("router: overflow of %v", b))
	}
	// Conditional wrap instead of %: the ring index is always already in
	// range, and avoiding the integer division matters on a path run for
	// every flit movement in the network.
	i := b.head + n
	if i >= fab.depth {
		i -= fab.depth
	}
	fab.flits[b.ring+i] = f
	fab.occ[b.gid] = n + 1
	b.lastPush = fab.now
	if n == 0 {
		bit := uint64(1) << b.lane
		fab.occMask[b.node] |= bit
		fab.actOccupied.set(b.node)
		fab.net.occupiedIns++
		if f.idx == 0 {
			fab.headMask[b.node] |= bit
		}
		if !b.bound {
			fab.net.pendingIns++
			fab.actPending.set(b.node)
		}
	}
	if b.countable && n+1 == fab.depth {
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
	if b.countable && n == fab.depth {
		fab.net.fullBuffers--
	}
	slot := &fab.flits[b.ring+b.head]
	f := *slot
	*slot = flit{}
	b.head++
	if b.head == fab.depth {
		b.head = 0
	}
	n--
	fab.occ[b.gid] = n
	bit := uint64(1) << b.lane
	if n == 0 {
		fab.occMask[b.node] &^= bit
		fab.headMask[b.node] &^= bit
		if fab.occMask[b.node] == 0 {
			fab.actOccupied.clearBit(b.node)
		}
		fab.net.occupiedIns--
		if !b.bound {
			fab.net.pendingIns--
			if fab.occMask[b.node]&^fab.boundMask[b.node] == 0 {
				fab.actPending.clearBit(b.node)
			}
		}
	} else if fab.flits[b.ring+b.head].idx == 0 {
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
	b.outPort = uint8(port)
	b.outVC = uint8(vc)
	fab.boundMask[b.node] |= uint64(1) << b.lane
	if fab.occ[b.gid] > 0 {
		fab.net.pendingIns--
		if fab.occMask[b.node]&^fab.boundMask[b.node] == 0 {
			fab.actPending.clearBit(b.node)
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
		fab.actPending.set(b.node)
	}
}

// countOf returns how many of p's flits the buffer holds.
//
//stcc:hotpath
func (b *vcBuffer) countOf(p *packet.Packet) int {
	c := 0
	for i, n := int32(0), b.fab.occ[b.gid]; i < n; i++ {
		if b.at(i).pkt == p {
			c++
		}
	}
	return c
}

// evictFront removes p's front flit: deadlock recovery drains the worm.
// It panics if the front flit is not p's (a conservation bug: a worm's
// flits are always contiguous at the front of every buffer it holds).
//
//stcc:hotpath
func (b *vcBuffer) evictFront(p *packet.Packet) {
	f := b.front()
	if f.pkt != p {
		panic(fmt.Sprintf("router: evictFront of %v: front belongs to %v, not %v", b, f.pkt, p))
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
	f    flit
	node int32
	port uint8
	vc   uint8
	lane uint8 // node-local output-lane index: bit position in the lane masks
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
	l.fab.actLatched.set(l.node)
	l.fab.net.latched++
}

//stcc:hotpath
func (l *latch) clear() flit {
	f := l.f
	l.f = flit{}
	l.full = false
	l.fab.latchMask[l.node] &^= uint64(1) << l.lane
	if l.fab.latchMask[l.node] == 0 {
		l.fab.actLatched.clearBit(l.node)
	}
	l.fab.net.latched--
	return f
}

// holds reports whether the latch holds a flit of p.
//
//stcc:hotpath
func (l *latch) holds(p *packet.Packet) bool { return l.full && l.f.pkt == p }

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

// evictFront consumes one of p's source flits: recovery drains them
// directly.
//
//stcc:hotpath
func (s *srcSlot) evictFront(p *packet.Packet) {
	if s.pkt != p || p.SrcRemaining == 0 {
		panic(fmt.Sprintf("router: evictFront of source %d: not streaming %v", s.node, p))
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
	fab.actOwned.set(o.lat.node)
	fab.net.ownedOuts++
}

//stcc:hotpath
func (o *outVC) release() {
	o.owner = nil
	o.ownerPkt = nil
	fab := o.lat.fab
	fab.ownedMask[o.lat.node] &^= uint64(1) << o.lat.lane
	if fab.ownedMask[o.lat.node] == 0 {
		fab.actOwned.clearBit(o.lat.node)
	}
	fab.net.ownedOuts--
}
