package router

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Disha-style progressive deadlock recovery.
//
// Detection: a packet whose header flit sits blocked at the front of an
// input virtual channel for longer than the configured timeout is
// presumed deadlocked. Recovery: the packet acquires the network's single
// recovery token ("exclusive access to the deadlock-free path") and is
// drained, one flit per cycle, through the per-node deadlock-buffer lane,
// which routes dimension-order over the mesh sub-network and is therefore
// deadlock free. Flits reach the destination after the lane's hop latency
// and are consumed there; the token is released when the tail arrives.
// Draining frees the virtual channels and buffers the worm occupied,
// letting the rest of the deadlocked cycle make progress.

// drainLoc is one location of the frozen worm and the flits it held at
// freeze time: an input buffer (buf), an output latch (out's), or, with
// both nil, the not-yet-injected remainder at the source. The location
// doubles as its cleanup target once vacated: a buffer releases its
// binding, an output VC its ownership. Locations are plain data, so
// reconstructing a worm never allocates (recovery fires continuously
// past saturation).
type drainLoc struct {
	buf   *vcBuffer
	out   *outVC
	count int
}

// suspect is a frozen packet queued for the recovery token.
type suspect struct {
	buf *vcBuffer
	pkt *packet.Packet
	at  int64 // cycle of suspicion
}

// recoveryState tracks the packet currently holding the recovery token.
// The fabric embeds one instance (recStore) and reuses it — including
// the locs backing array — across recoveries.
type recoveryState struct {
	pkt     *packet.Packet
	locs    []drainLoc // downstream-first: locs[0] drains first
	idx     int
	dist    int // mesh DOR hops from the header's router to the destination
	started int64
	popped  int
	arrived int
}

// detectDeadlock marks packets blocked past the timeout as deadlock
// suspects. A suspected packet is committed to recovery: it freezes in
// place (its flits stop competing for normal channels) and queues for the
// single recovery token — "a packet [must] obtain exclusive access to the
// deadlock-free path". When the token is free the oldest suspect starts
// draining. Past saturation most packets exceed the timeout, the token
// queue grows, and frozen worms clog the network: this is the mechanism
// behind the paper's throughput collapse in the recovery configuration.
//
//stcc:hotpath
func (f *Fabric) detectDeadlock() {
	// An empty network (net.occupiedIns == 0) holds nothing blockable, but
	// the suspect queue below must still be serviced: re-arm timers keep
	// running for frozen packets whose flits sit outside input buffers.
	if f.net.occupiedIns > 0 {
		for wi, w := range f.actOccupied.actWords {
			for w != 0 {
				ni := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				f.detectNode(ni)
			}
		}
	}
	f.serviceSuspects()
}

// detectNode scans node ni's input lanes whose front flit is a header,
// in lane order, and freezes each packet blocked past the timeout,
// queueing it for the recovery token.
//
//stcc:hotpath
func (f *Fabric) detectNode(ni int) {
	now := f.now
	timeout := f.cfg.DeadlockTimeout
	base := ni * f.lanesIn
	for dm := f.occMask[ni] & f.headMask[ni]; dm != 0; dm &= dm - 1 {
		lane := bits.TrailingZeros64(dm)
		b := &f.bufs[base+lane]
		fl := b.front()
		if fl.pkt.Mode.Frozen() {
			continue
		}
		if fl.pkt.BlockedFor(now) > timeout {
			fl.pkt.Mode = packet.Suspected
			f.suspects = append(f.suspects, suspect{buf: b, pkt: fl.pkt, at: now})
			f.emit(trace.Suspected, fl.pkt, topology.NodeID(b.node))
		}
	}
}

// serviceSuspects re-arms suspects that have waited too long for the
// token and hands the free token to the oldest remaining suspect. The
// presumed deadlock may have been plain congestion, so a re-armed packet
// resumes normal routing with a fresh timer; without this, one
// serialized token would freeze a saturated network forever.
//
//stcc:hotpath
func (f *Fabric) serviceSuspects() {
	now := f.now
	kept := f.suspects[:0]
	for _, s := range f.suspects {
		if now-s.at > f.tokenWait {
			s.pkt.Mode = packet.Adaptive
			s.pkt.Progress(now)
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(f.suspects); i++ {
		f.suspects[i] = suspect{}
	}
	f.suspects = kept

	if f.rec == nil && len(f.suspects) > 0 {
		victim := f.suspects[0]
		copy(f.suspects, f.suspects[1:])
		f.suspects[len(f.suspects)-1] = suspect{}
		f.suspects = f.suspects[:len(f.suspects)-1]
		f.startRecovery(victim.buf)
	}
}

// feedingLatch returns the output VC (and latch) at the upstream router
// that sends into input buffer b; nil for the injection channel, which
// is fed directly from the source.
//
//stcc:hotpath
func (f *Fabric) feedingLatch(b *vcBuffer) *outVC {
	port := int(b.port)
	if port == f.injPort {
		return nil
	}
	up := f.topo.Neighbor(topology.NodeID(b.node), topology.PortDim(port), topology.PortDir(port))
	return f.outputVC(int(up), topology.OppositePort(port), int(b.vc))
}

// startRecovery freezes the worm whose header sits at the front of head
// and reconstructs its locations, downstream first, by walking output-VC
// ownership upstream: take the buffer's flits; while the output VC that
// feeds the buffer is owned by the packet, take its latch's flit and
// continue at the buffer that owns the VC; finish with the source. A
// packet owns every output VC behind its header until its tail crosses
// the link, so the walk visits every buffer and latch holding its flits
// (CheckInvariants verifies the ownership chain). The recovery state and
// its locations array are reused across recoveries.
//
//stcc:hotpath
func (f *Fabric) startRecovery(head *vcBuffer) {
	pkt := head.front().pkt
	pkt.Mode = packet.Recovering

	r := &f.recStore
	*r = recoveryState{
		pkt:     pkt,
		locs:    r.locs[:0],
		dist:    f.topo.MeshDistance(topology.NodeID(head.node), pkt.Dst),
		started: f.now,
	}

	total := 0
	for b := head; b != nil; {
		if c := b.countOf(pkt); c > 0 {
			r.locs = append(r.locs, drainLoc{buf: b, count: c})
			total += c
		}
		o := f.feedingLatch(b)
		if o == nil || o.ownerPkt != pkt {
			break
		}
		// A mid-worm flit may sit in the latch feeding b (crossbar'd
		// this cycle, frozen before link traversal).
		if o.lat.holds(pkt) {
			r.locs = append(r.locs, drainLoc{out: o, count: 1})
			total++
		}
		b = o.owner
	}
	if src := &f.nodes[pkt.Src].src; src.pkt == pkt && pkt.SrcRemaining > 0 {
		r.locs = append(r.locs, drainLoc{count: pkt.SrcRemaining})
		total += pkt.SrcRemaining
	}

	if total != pkt.Length {
		panic(fmt.Sprintf("router: recovery of %v found %d flits, want %d", pkt, total, pkt.Length))
	}
	f.rec = r
	f.emit(trace.RecoveryStarted, pkt, topology.NodeID(head.node))
}

// cleanupBuffer releases the resources an input buffer held for the
// recovered packet: its wormhole binding and the output VC its header
// allocated at this router (whose downstream flits have already drained).
//
//stcc:hotpath
func (f *Fabric) cleanupBuffer(b *vcBuffer, pkt *packet.Packet) {
	if b.bound && b.boundPkt == pkt {
		o := f.outputVC(int(b.node), int(b.outPort), int(b.outVC))
		if o.ownerPkt == pkt {
			o.release()
		}
		b.clearBinding()
	}
}

// cleanupOutVC releases ownership of an output VC once the recovered
// packet's flit has been evicted from its latch (the in-flight tail
// case).
//
//stcc:hotpath
func (f *Fabric) cleanupOutVC(o *outVC, pkt *packet.Packet) {
	if o.ownerPkt == pkt {
		o.release()
	}
}

// recoveryStep advances the active recovery by one cycle: evict one flit
// into the deadlock-buffer lane and count lane arrivals at the
// destination. Recovery runs before the other stages.
//
//stcc:hotpath
func (f *Fabric) recoveryStep() {
	r := f.rec
	if r == nil {
		return
	}
	now := f.now
	r.pkt.Progress(now)

	if r.popped < r.pkt.Length {
		for r.idx < len(r.locs) && r.locs[r.idx].count == 0 {
			r.idx++
		}
		if r.idx >= len(r.locs) {
			panic(fmt.Sprintf("router: recovery of %v ran out of flits after %d", r.pkt, r.popped))
		}
		d := &r.locs[r.idx]
		switch {
		case d.buf != nil:
			d.buf.evictFront(r.pkt)
		case d.out != nil:
			if !d.out.lat.holds(r.pkt) {
				panic(fmt.Sprintf("router: recovery of %v: %v does not hold its flit", r.pkt, &d.out.lat))
			}
			d.out.lat.clear()
		default:
			f.nodes[r.pkt.Src].src.evictFront(r.pkt)
		}
		d.count--
		r.popped++
		if d.count == 0 {
			if d.buf != nil {
				f.cleanupBuffer(d.buf, r.pkt)
			} else if d.out != nil {
				f.cleanupOutVC(d.out, r.pkt)
			}
		}
	}

	// Flit j is popped at cycle started+1+j and arrives at the
	// destination dist+1 cycles later.
	if j := now - r.started - int64(r.dist) - 2; j >= 0 && j < int64(r.pkt.Length) {
		f.deliveredFlits++
		r.pkt.Consumed++
		r.arrived++
		if r.arrived == r.pkt.Length {
			f.emit(trace.RecoveryCompleted, r.pkt, r.pkt.Dst)
			f.deliver(r.pkt, now)
			f.recoveries++
			f.rec = nil
		}
	}
}
