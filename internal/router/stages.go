package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/trace"
)

// The per-cycle stages. Each outer loop walks the stage's node-level
// active bitset with trailing-zero scans over a snapshot of each word
// (a stage only ever clears its own bitset's bits, never sets them, so
// a snapshot walk visits exactly the nodes that were active at stage
// start — the serial semantics). Inside a node, the per-lane masks are
// walked the same way, so cost scales with active lanes, not with
// ports x VCs.

// linkStage moves every latched flit across its link into the downstream
// virtual-channel buffer (one cycle per flit per link), or consumes it at
// the delivery channel. Space downstream is guaranteed: the crossbar only
// latched the flit after checking occupancy, and each buffer has exactly
// one upstream source.
//
//stcc:hotpath
func (f *Fabric) linkStage() {
	if f.net.latched == 0 {
		return // no latched flit anywhere in the network
	}
	for wi, w := range f.actLatched.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.linkNode(ni)
		}
	}
}

// linkNode drains node ni's latches: delivery lanes consume at this
// node, physical lanes hand off to the downstream neighbor. A latched
// flit belongs to the packet that owns its output VC, so the packet is
// read there, not in the packet table.
//
//stcc:hotpath
func (f *Fabric) linkNode(ni int) {
	now := f.now
	base := ni * f.lanesOut
	for lm := f.latchMask[ni]; lm != 0; lm &= lm - 1 {
		lane := bits.TrailingZeros64(lm)
		o := &f.outsA[base+lane]
		pkt := o.ownerPkt
		if pkt.Mode.Frozen() {
			continue
		}
		fl := o.lat.clear(f)
		pkt.Progress(now)
		if int(o.lat.port) == f.dlvPort {
			f.deliveredFlits++
			pkt.Consumed++
			if fl.isTailOf(pkt) {
				o.release(f)
				f.deliver(pkt, fl.slot, now)
			}
			continue
		}
		tb := &f.bufs[f.dstGid[base+lane]]
		if tb.full(f) {
			panic(fmt.Sprintf("router: link overflow into %v at cycle %d", tb, now))
		}
		tb.push(f, fl)
		if fl.isTailOf(pkt) {
			o.release(f)
		}
	}
}

// crossbarStage performs switch allocation and crossbar traversal: per
// output port, at most one flit moves from the front of an owning input
// VC into the output latch (one cycle per flit through the crossbar).
// Winners are chosen round-robin over the port's output VCs.
//
//stcc:hotpath
func (f *Fabric) crossbarStage() {
	if f.net.ownedOuts == 0 {
		return // no packet owns an output VC anywhere
	}
	for wi, w := range f.actOwned.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.crossbarNode(ni)
		}
	}
}

// crossbarNode runs switch allocation at node ni: owned-but-unlatched
// lanes are the candidates, visited port by port.
//
//stcc:hotpath
func (f *Fabric) crossbarNode(ni int) {
	cm := f.ownedMask[ni] &^ f.latchMask[ni]
	for cm != 0 {
		lane := bits.TrailingZeros64(cm)
		p := int(f.laneOutPort[lane])
		base, nvc := f.outPortBase[p], f.outPortWidth[p]
		cm &^= ((uint64(1) << uint(nvc)) - 1) << uint(base)
		f.crossbarPort(ni, p, base, nvc)
	}
}

// crossbarPort arbitrates one output port: round-robin from swPtr over
// the port's output VCs, the first candidate with a buffered flit and a
// downstream credit wins. One flit per physical port per cycle; each
// delivery (consumption) channel drains independently.
//
//stcc:hotpath
func (f *Fabric) crossbarPort(ni, p, base, nvc int) {
	now := f.now
	pm := (f.ownedMask[ni] &^ f.latchMask[ni]) >> uint(base)
	outs := f.outsA[ni*f.lanesOut+base : ni*f.lanesOut+base+nvc]
	sw := &f.swPtr[ni*(f.dlvPort+1)+p]
	start := int(*sw)
	dlv := p == f.dlvPort
	for i := 0; i < nvc; i++ {
		vi := start + i
		if vi >= nvc {
			vi -= nvc
		}
		if pm&(uint64(1)<<uint(vi)) == 0 {
			continue
		}
		o := &outs[vi]
		pkt := o.ownerPkt
		if pkt.Mode.Frozen() {
			continue
		}
		if f.occ[o.owner] == 0 {
			continue // worm stretched thin: no flit buffered here yet
		}
		if !dlv {
			tg := f.dstGid[ni*f.lanesOut+base+vi]
			if int(f.occ[tg]) == f.cfg.BufDepth {
				continue // no downstream credit
			}
		}
		b := &f.bufs[o.owner]
		fl := b.pop(f)
		if fl.slot != o.ownerSlot {
			panic(fmt.Sprintf("router: %v front flit of slot %d, owner %v at slot %d", b, fl.slot, pkt, o.ownerSlot))
		}
		pkt.Progress(now)
		if fl.isTailOf(pkt) {
			b.clearBinding(f)
		}
		o.lat.set(f, fl)
		if !dlv {
			if vi++; vi == nvc {
				vi = 0
			}
			*sw = uint8(vi)
			return
		}
	}
}

// routingStage runs each router's central arbiter: demand-slotted
// round-robin over input VCs whose front flit is an unrouted header, at
// most one routing decision per router per cycle (the paper's one-cycle
// routing delay; body flits stream behind the header without consulting
// the arbiter).
//
//stcc:hotpath
func (f *Fabric) routingStage() {
	if f.net.pendingIns == 0 {
		return // no unrouted header anywhere
	}
	for wi, w := range f.actPending.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.arbitrate(&f.nodes[ni])
		}
	}
}

//stcc:hotpath
func (f *Fabric) arbitrate(nd *node) {
	ni := int(nd.id)
	// Candidate lanes: occupied, unbound, an unfrozen header at the
	// front. The arrival check stays live per candidate, exactly like the
	// serial scan's continue condition.
	cm := (f.occMask[ni] &^ f.boundMask[ni]) & f.headMask[ni] &^ f.frozenMask[ni]
	if cm == 0 {
		return // no input VC holds an unrouted header
	}
	total := f.lanesIn
	ap := nd.arbPtr
	for m := cm >> uint(ap); m != 0; m &= m - 1 {
		idx := ap + bits.TrailingZeros64(m)
		if f.tryArbSlot(nd, idx, total) {
			return
		}
	}
	for m := cm & ((uint64(1) << uint(ap)) - 1); m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		if f.tryArbSlot(nd, idx, total) {
			return
		}
	}
}

// tryArbSlot offers the arbiter slot to the candidate at lane idx. It
// returns true when the candidate took the slot (whether or not output
// VC allocation succeeded — demand-slotted round robin), false when the
// candidate was ineligible this cycle and the scan continues.
//
//stcc:hotpath
func (f *Fabric) tryArbSlot(nd *node, idx, total int) bool {
	b := &f.bufs[int(nd.id)*f.lanesIn+idx]
	if b.arrivedNow(f) {
		// The header arrived this cycle; routing occupies the next
		// cycle (the paper's one-cycle routing delay).
		return false
	}
	nd.arbPtr = (idx + 1) % total
	f.routeHeader(nd, b, f.slots.get(b.front(f).slot))
	return true
}

// vcAvailable reports whether output VC (port, vc) at nd can be
// allocated to pkt: it must be unowned, and under virtual cut-through
// the downstream buffer must have room for the entire packet (so a
// blocked packet never spans routers).
//
//stcc:hotpath
func (f *Fabric) vcAvailable(nd *node, port, vc int, pkt *packet.Packet) bool {
	if !f.outputVC(int(nd.id), port, vc).free() {
		return false
	}
	if f.cfg.Switching != CutThrough || port == f.dlvPort {
		return true
	}
	tg := f.dstGid[int(nd.id)*f.lanesOut+port*f.cfg.VCs+vc]
	return f.cfg.BufDepth-int(f.occ[tg]) >= pkt.Length
}

// routeHeader attempts route computation and output VC allocation for the
// header at the front of b. On failure the header retries on a later
// arbiter slot.
//
//stcc:hotpath
func (f *Fabric) routeHeader(nd *node, b *vcBuffer, pkt *packet.Packet) bool {
	if pkt.Dst == nd.id {
		for v := 0; v < f.outPortWidth[f.dlvPort]; v++ {
			if f.outputVC(int(nd.id), f.dlvPort, v).free() {
				f.allocate(nd, b, pkt, f.dlvPort, v)
				return true
			}
		}
		return false
	}
	switch f.cfg.Mode {
	case Recovery:
		// All virtual channels are fully adaptive.
		return f.routeAdaptive(nd, b, pkt, 0)
	default: // Avoidance
		if pkt.Mode != packet.Escape && f.routeAdaptive(nd, b, pkt, 1) {
			return true
		}
		// Escape lane: dimension-order over the mesh on VC 0. Once a
		// packet enters the escape lane it stays there (conservative
		// Duato protocol, trivially deadlock free).
		if f.routeEscape(nd, b, pkt) {
			pkt.Mode = packet.Escape
			return true
		}
		return false
	}
}

// routeAdaptive tries the minimal output ports in the order the
// configured selection policy prefers, and every virtual channel from
// minVC up, taking the first free output VC.
//
//stcc:hotpath
func (f *Fabric) routeAdaptive(nd *node, b *vcBuffer, pkt *packet.Packet, minVC int) bool {
	ports := f.topo.MinimalPorts(nd.id, pkt.Dst, f.ports[:0])
	f.ports = ports
	if len(ports) == 0 {
		return false
	}
	start := 0
	switch f.cfg.Selection {
	case RotatePorts:
		start = nd.adaptPtr % len(ports)
		nd.adaptPtr++
	case MostFreeVCs:
		best := -1
		for i, p := range ports {
			free := 0
			for v := minVC; v < f.cfg.VCs; v++ {
				if f.outputVC(int(nd.id), p, v).free() {
					free++
				}
			}
			if free > best {
				best = free
				start = i
			}
		}
	}
	for i := 0; i < len(ports); i++ {
		p := ports[(start+i)%len(ports)]
		for v := minVC; v < f.cfg.VCs; v++ {
			if f.vcAvailable(nd, p, v, pkt) {
				f.allocate(nd, b, pkt, p, v)
				return true
			}
		}
	}
	return false
}

// routeEscape allocates escape VC 0 on the mesh dimension-order port.
//
//stcc:hotpath
func (f *Fabric) routeEscape(nd *node, b *vcBuffer, pkt *packet.Packet) bool {
	p, ok := f.topo.DORMeshNextPort(nd.id, pkt.Dst)
	if !ok {
		return false // local destination handled earlier
	}
	if f.vcAvailable(nd, p, 0, pkt) {
		f.allocate(nd, b, pkt, p, 0)
		return true
	}
	return false
}

// allocate binds input VC b to output VC (port, vc) for pkt, whose
// header is b's front flit.
//
//stcc:hotpath
func (f *Fabric) allocate(nd *node, b *vcBuffer, pkt *packet.Packet, port, vc int) {
	o := f.outputVC(int(nd.id), port, vc)
	if !o.free() {
		panic(fmt.Sprintf("router: double allocation of node %d port %d vc %d", nd.id, port, vc))
	}
	slot := b.front(f).slot
	b.setBinding(f, slot, port, vc)
	o.acquire(f, b, slot, pkt)
	pkt.Hops++
	pkt.Progress(f.now)
	f.emit(trace.Routed, pkt, nd.id)
}

// injectionStage streams the current packet of each node's source slot
// into the injection channel at one flit per cycle.
//
//stcc:hotpath
func (f *Fabric) injectionStage() {
	if f.net.srcActive == 0 {
		return // no source is streaming a packet
	}
	for wi, w := range f.actSrc.actWords {
		for w != 0 {
			ni := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			f.injectNode(ni)
		}
	}
}

// injectNode streams one flit of node ni's current source packet.
//
//stcc:hotpath
func (f *Fabric) injectNode(ni int) {
	nd := &f.nodes[ni]
	pkt := nd.src.pkt
	if pkt == nil || pkt.Mode.Frozen() {
		return
	}
	now := f.now
	b := &f.bufs[ni*f.lanesIn+f.lanesIn-1]
	if b.full(f) {
		return
	}
	idx := pkt.Length - pkt.SrcRemaining
	b.push(f, flit{slot: nd.src.slot, idx: int32(idx)})
	pkt.SrcRemaining--
	pkt.Progress(now)
	if idx == 0 {
		pkt.InjectedAt = now
		f.emit(trace.Injected, pkt, pkt.Src)
	}
	if pkt.SrcRemaining == 0 {
		nd.endSource(f)
	}
}
