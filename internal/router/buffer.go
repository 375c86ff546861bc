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
)

// This file is the only place the fabric's structure-of-arrays hot state
// may be written: the per-lane occupancy array (occ), the per-node lane
// masks (occMask, boundMask, headMask, frozenMask, latchMask,
// ownedMask), the node-level active bitsets (actWords), and the
// netCounters sums. The counterguard analyzer enforces the restriction;
// every transition goes through the accessors below so the masks, the
// bitsets and the counters can never drift apart.

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
	// The six lane-mask arrays are consecutive windows of one allocation.
	f.masks = reuse(old.masks, 6*nodes)
	mask := func(i int) []uint64 { return f.masks[i*nodes : (i+1)*nodes : (i+1)*nodes] }
	f.occMask, f.boundMask, f.headMask = mask(0), mask(1), mask(2)
	f.frozenMask, f.latchMask, f.ownedMask = mask(3), mask(4), mask(5)
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

// flit is one flow-control unit: the idx-th flit of the packet at
// table slot slot (packets.go). It is 8 bytes and holds no pointer, so
// the flit arena is never scanned by the collector; the zero flit
// (slot 0) is "no flit". A header's arrival cycle, which the routing
// arbiter's one-cycle delay needs, is read off its buffer instead
// (vcBuffer.arrivedNow).
type flit struct {
	slot int32
	idx  int32
}

//stcc:hotpath
func (f flit) valid() bool { return f.slot != 0 }

//stcc:hotpath
func (f flit) isHead() bool { return f.idx == 0 }

// isTailOf reports whether f is the last flit of p, its packet.
//
//stcc:hotpath
func (f flit) isTailOf(p *packet.Packet) bool { return int(f.idx) == p.Length-1 }

// vcBuffer is one virtual channel's edge buffer: a fixed-capacity FIFO of
// flits, plus the wormhole binding state (which output VC the packet at
// its front has been allocated). Buffers live in a per-fabric arena,
// node-major by lane (bufs[node*lanesIn+lane]); a buffer's identity is
// its arena index, gid. Its flit ring is the BufDepth slots of the
// fabric's one flit arena starting at ring. The occupancy count itself
// lives in the fabric's contiguous occ array (indexed by gid), so a
// remote credit check reads one hot array element instead of pulling in
// the whole buffer struct. The buffer holds no pointer — the fabric is
// passed to its methods, and the bound packet is named by slot — so the
// struct is 40 bytes and the buffer arena is never scanned by the
// collector.
type vcBuffer struct {
	// lastPush is the cycle of the most recent push. A buffer takes at
	// most one flit per cycle (from its one upstream latch, or from the
	// injection stream), which is what makes arrivedNow exact.
	lastPush int64

	// Wormhole binding: the slot of the front packet, set when its
	// header is routed and cleared (0) when its tail flit leaves the
	// buffer.
	boundSlot int32

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

	outPort uint8
	outVC   uint8
}

// bound reports whether the front packet holds a wormhole binding.
//
//stcc:hotpath
func (b *vcBuffer) bound() bool { return b.boundSlot != 0 }

//stcc:hotpath
func (b *vcBuffer) len(fab *Fabric) int { return int(fab.occ[b.gid]) }

//stcc:hotpath
func (b *vcBuffer) full(fab *Fabric) bool { return fab.occ[b.gid] == fab.depth }

// at returns the i-th flit from the front (i < len).
//
//stcc:hotpath
func (b *vcBuffer) at(fab *Fabric, i int32) flit {
	j := b.head + i
	if j >= fab.depth {
		j -= fab.depth
	}
	return fab.flits[b.ring+j]
}

//stcc:hotpath
func (b *vcBuffer) front(fab *Fabric) flit {
	if fab.occ[b.gid] == 0 {
		return flit{}
	}
	return fab.flits[b.ring+b.head]
}

// arrivedNow reports whether the front flit entered the buffer this
// cycle. The flit pushed this cycle is the front exactly when it is the
// only flit: a flit ahead of it arrived in an earlier cycle, and none
// can arrive behind it until the next one.
//
//stcc:hotpath
func (b *vcBuffer) arrivedNow(fab *Fabric) bool {
	return b.lastPush == fab.now && fab.occ[b.gid] == 1
}

//stcc:hotpath
func (b *vcBuffer) push(fab *Fabric, fl flit) {
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
	fab.flits[b.ring+i] = fl
	fab.occ[b.gid] = n + 1
	b.lastPush = fab.now
	if n == 0 {
		bit := uint64(1) << b.lane
		fab.occMask[b.node] |= bit
		fab.actOccupied.set(b.node)
		fab.net.occupiedIns++
		if fl.idx == 0 {
			fab.headMask[b.node] |= bit
		}
		if !b.bound() {
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
		if fl.idx == 0 && fab.congStable[b.node>>6]&(1<<uint(b.node&63)) != 0 {
			fab.slots.get(fl.slot).Marked = true
		}
	}
}

//stcc:hotpath
func (b *vcBuffer) pop(fab *Fabric) flit {
	n := fab.occ[b.gid]
	if n == 0 {
		panic(fmt.Sprintf("router: underflow of %v", b))
	}
	if b.countable && n == fab.depth {
		fab.net.fullBuffers--
	}
	slot := &fab.flits[b.ring+b.head]
	fl := *slot
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
		if !b.bound() {
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
	return fl
}

// setBinding records the wormhole route decision for the packet at the
// front of b, at table slot slot. The buffer leaves the pending set: its
// front is no longer an unrouted header.
//
//stcc:hotpath
func (b *vcBuffer) setBinding(fab *Fabric, slot int32, port, vc int) {
	b.boundSlot = slot
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
func (b *vcBuffer) clearBinding(fab *Fabric) {
	b.boundSlot = 0
	b.outPort = 0
	b.outVC = 0
	fab.boundMask[b.node] &^= uint64(1) << b.lane
	if fab.occ[b.gid] > 0 {
		fab.net.pendingIns++
		fab.actPending.set(b.node)
	}
}

// countOf returns how many flits of the packet at slot the buffer holds.
//
//stcc:hotpath
func (b *vcBuffer) countOf(fab *Fabric, slot int32) int {
	c := 0
	for i, n := int32(0), fab.occ[b.gid]; i < n; i++ {
		if b.at(fab, i).slot == slot {
			c++
		}
	}
	return c
}

// evictFront removes the front flit of the packet at slot: deadlock
// recovery drains the worm. It panics if the front flit is not that
// packet's (a conservation bug: a worm's flits are always contiguous at
// the front of every buffer it holds). The drain takes the frozen
// header first, and the front it leaves is the packet's body or an
// unfrozen packet's header, so the lane leaves the frozen mask.
//
//stcc:hotpath
func (b *vcBuffer) evictFront(fab *Fabric, slot int32) {
	if fl := b.front(fab); fl.slot != slot {
		panic(fmt.Sprintf("router: evictFront of %v: front belongs to slot %d, not %d", b, fl.slot, slot))
	}
	b.pop(fab)
	b.thawHead(fab)
}

// freezeHead records that b's front flit is the header of a packet
// that has just frozen (a deadlock suspect). A frozen header stays at
// the front until it thaws or the recovery drain takes it, and
// arbitration and deadlock detection skip its lane without reading the
// packet.
//
//stcc:hotpath
func (b *vcBuffer) freezeHead(fab *Fabric) { fab.frozenMask[b.node] |= uint64(1) << b.lane }

// thawHead clears b's lane from the frozen mask.
//
//stcc:hotpath
func (b *vcBuffer) thawHead(fab *Fabric) { fab.frozenMask[b.node] &^= uint64(1) << b.lane }

func (b *vcBuffer) String() string {
	return fmt.Sprintf("vcbuf(node %d port %d vc %d)", b.node, b.port, b.vc)
}

// latch is the one-flit output register between a router's crossbar and
// its outgoing link (or the delivery channel). A flit spends exactly one
// cycle here: crossbar traversal fills it, link traversal drains it.
type latch struct {
	f    flit
	node int32
	port uint8
	vc   uint8
	lane uint8 // node-local output-lane index: bit position in the lane masks
	full bool
}

//stcc:hotpath
func (l *latch) set(fab *Fabric, f flit) {
	if l.full {
		panic(fmt.Sprintf("router: latch collision at %v", l))
	}
	l.f = f
	l.full = true
	fab.latchMask[l.node] |= uint64(1) << l.lane
	fab.actLatched.set(l.node)
	fab.net.latched++
}

//stcc:hotpath
func (l *latch) clear(fab *Fabric) flit {
	f := l.f
	l.f = flit{}
	l.full = false
	fab.latchMask[l.node] &^= uint64(1) << l.lane
	if fab.latchMask[l.node] == 0 {
		fab.actLatched.clearBit(l.node)
	}
	fab.net.latched--
	return f
}

// holds reports whether the latch holds a flit of the packet at slot.
//
//stcc:hotpath
func (l *latch) holds(slot int32) bool { return l.full && l.f.slot == slot }

func (l *latch) String() string {
	return fmt.Sprintf("latch(node %d port %d vc %d)", l.node, l.port, l.vc)
}

// srcSlot is the not-yet-injected remainder of the packet currently
// streaming into a node's injection channel: the packet, which the
// injection stage reads on every flit, and its table slot.
type srcSlot struct {
	pkt  *packet.Packet // nil when no packet is streaming
	slot int32
}

// startSource starts streaming p, at table slot slot, into nd's
// injection channel; like the other accessors in this file it keeps the
// active-source bitset and counter in lockstep.
//
//stcc:hotpath
func (nd *node) startSource(fab *Fabric, p *packet.Packet, slot int32) {
	nd.src = srcSlot{pkt: p, slot: slot}
	fab.actSrc.set(int32(nd.id))
	fab.net.srcActive++
}

// endSource ends the stream (tail injected, or evicted by recovery).
//
//stcc:hotpath
func (nd *node) endSource(fab *Fabric) {
	nd.src = srcSlot{}
	fab.actSrc.clearBit(int32(nd.id))
	fab.net.srcActive--
}

// evictSource consumes one source flit of the packet at slot: recovery
// drains them directly.
//
//stcc:hotpath
func (nd *node) evictSource(fab *Fabric, slot int32) {
	p := nd.src.pkt
	if nd.src.slot != slot || p.SrcRemaining == 0 {
		panic(fmt.Sprintf("router: evictSource at node %d: not streaming slot %d", nd.id, slot))
	}
	p.SrcRemaining--
	if p.SrcRemaining == 0 {
		nd.endSource(fab)
	}
}

// outVC is one output virtual channel: ownership (a packet holds an
// output VC from header allocation until its tail crosses the link) plus
// the output latch. The owner is the input VC whose packet holds the VC,
// by gid, and that packet by pointer and by slot: the link and crossbar
// stages read every flit's packet here instead of in the packet table,
// since a flit in the latch or crossing toward it always belongs to the
// owner. 32 bytes.
type outVC struct {
	ownerPkt  *packet.Packet
	owner     int32 // gid of the owning input VC
	ownerSlot int32 // ownerPkt's table slot; 0 when the VC is free
	lat       latch
}

//stcc:hotpath
func (o *outVC) free() bool { return o.ownerSlot == 0 }

// acquire gives the VC to pkt, at table slot slot, whose header sits in
// input VC b.
//
//stcc:hotpath
func (o *outVC) acquire(fab *Fabric, b *vcBuffer, slot int32, pkt *packet.Packet) {
	o.ownerPkt = pkt
	o.owner = b.gid
	o.ownerSlot = slot
	fab.ownedMask[o.lat.node] |= uint64(1) << o.lat.lane
	fab.actOwned.set(o.lat.node)
	fab.net.ownedOuts++
}

//stcc:hotpath
func (o *outVC) release(fab *Fabric) {
	o.ownerPkt = nil
	o.owner = 0
	o.ownerSlot = 0
	fab.ownedMask[o.lat.node] &^= uint64(1) << o.lat.lane
	if fab.ownedMask[o.lat.node] == 0 {
		fab.actOwned.clearBit(o.lat.node)
	}
	fab.net.ownedOuts--
}
