package router

import (
	"fmt"
	"sort"

	"repro/internal/packet"
)

// CheckInvariants walks the whole fabric and verifies structural
// invariants: buffer occupancy bounds and the occ array, the per-node
// lane masks and node-level active bitsets the stages iterate, the
// incremental full-buffer counter and network active-set sums, wormhole
// binding/ownership consistency, per-packet flit conservation (buffered
// + consumed + in the recovery lane == length), and the packet-recycling
// guard: no buffer, latch, or source slot may reference a packet already
// returned to a packet.Pool.
// It exists for tests and debugging; it is O(network size) and is never
// called by Step.
func (f *Fabric) CheckInvariants() error {
	buffered := map[*packet.Packet]int{}
	// Recount into plain locals (counterguard confines netCounters field
	// writes to buffer.go); the comparison builds a struct at the end.
	var fullBuffers, latched, ownedOuts, occupiedIns, pendingIns, srcActive int

	for ni := range f.nodes {
		nd := &f.nodes[ni]
		var occMask, boundMask, headMask, latchMask, ownedMask uint64
		countableFlits := 0
		for lane := 0; lane < f.lanesIn; lane++ {
			b := &f.bufs[ni*f.lanesIn+lane]
			n := int(f.occ[b.gid])
			if n < 0 || n > int(f.depth) {
				return fmt.Errorf("%v occupancy %d out of range", b, n)
			}
			if b.countable {
				countableFlits += n
			}
			if int(b.node) != ni || int(b.lane) != lane || int(b.gid) != ni*f.lanesIn+lane ||
				int(b.ring) != int(b.gid)*int(f.depth) {
				return fmt.Errorf("%v lane identity mismatch (gid %d, lane %d, ring %d)", b, b.gid, b.lane, b.ring)
			}
			if b.countable && b.full() {
				fullBuffers++
			}
			bit := uint64(1) << b.lane
			if n > 0 {
				occMask |= bit
				occupiedIns++
				if b.front().isHead() {
					headMask |= bit
				}
				if !b.bound {
					pendingIns++
				}
			}
			if b.bound {
				boundMask |= bit
			}
			for i := 0; i < int(f.depth); i++ {
				fl := b.at(int32(i))
				if i < n {
					if fl.pkt == nil {
						return fmt.Errorf("%v holds a nil flit at %d", b, i)
					}
					buffered[fl.pkt]++
				} else if fl.valid() {
					// The ring outside [head, head+n) must be vacated: pop
					// zeroes slots, so a stale flit means corruption.
					return fmt.Errorf("%v holds a stale flit outside its occupied window", b)
				}
			}
			if b.bound {
				if b.boundPkt == nil {
					return fmt.Errorf("%v bound without packet", b)
				}
				o := f.outputVC(ni, int(b.outPort), int(b.outVC))
				if o.ownerPkt != b.boundPkt {
					return fmt.Errorf("%v bound to %v but output VC owned by %v", b, b.boundPkt, o.ownerPkt)
				}
			}
		}
		for lane := 0; lane < f.lanesOut; lane++ {
			o := &f.outsA[ni*f.lanesOut+lane]
			bit := uint64(1) << o.lat.lane
			if o.lat.full {
				if o.lat.f.pkt == nil {
					return fmt.Errorf("%v holds a nil flit", &o.lat)
				}
				buffered[o.lat.f.pkt]++
				latchMask |= bit
				latched++
			}
			if (o.ownerPkt == nil) != (o.owner == nil) {
				return fmt.Errorf("output VC at node %d: owner/ownerPkt mismatch", nd.id)
			}
			if o.ownerPkt != nil {
				ownedMask |= bit
				ownedOuts++
				// Deadlock recovery walks this chain upstream from a
				// worm's header: an owned output VC's owner buffer is
				// bound to the owning packet until the packet's tail
				// has left it for this VC's latch.
				tailLatched := o.lat.full && o.lat.f.pkt == o.ownerPkt && o.lat.f.isTail()
				if !tailLatched && (!o.owner.bound || o.owner.boundPkt != o.ownerPkt) {
					return fmt.Errorf("%v owned by %v but its owner %v is bound to %v",
						&o.lat, o.ownerPkt, o.owner, o.owner.boundPkt)
				}
			}
		}
		if p := nd.src.pkt; p != nil {
			buffered[p] += p.SrcRemaining
			srcActive++
		}

		if occMask != f.occMask[ni] || boundMask != f.boundMask[ni] || headMask != f.headMask[ni] ||
			latchMask != f.latchMask[ni] || ownedMask != f.ownedMask[ni] {
			return fmt.Errorf("node %d lane masks (occ %x bound %x head %x latch %x owned %x), recount (%x %x %x %x %x)",
				nd.id, f.occMask[ni], f.boundMask[ni], f.headMask[ni], f.latchMask[ni], f.ownedMask[ni],
				occMask, boundMask, headMask, latchMask, ownedMask)
		}
		bit := uint64(1) << uint(ni&63)
		checks := [...]struct {
			name string
			a    *activeWords
			want bool
		}{
			{"occupied", &f.actOccupied, occMask != 0},
			{"pending", &f.actPending, occMask&^boundMask != 0},
			{"latched", &f.actLatched, latchMask != 0},
			{"owned", &f.actOwned, ownedMask != 0},
			{"src", &f.actSrc, nd.src.pkt != nil},
		}
		for _, c := range checks {
			if got := c.a.actWords[ni>>6]&bit != 0; got != c.want {
				return fmt.Errorf("node %d active bitset %s = %v, want %v", nd.id, c.name, got, c.want)
			}
		}
		if f.markHi > 0 {
			// The per-node occupancy fold must match a recount, and the
			// congestion bit must respect the hysteresis band: forced on
			// at or above markHi, forced off at or below markLo, and
			// path-dependent (either value legal) in between.
			if got := int(f.nodeOcc[ni]); got != countableFlits {
				return fmt.Errorf("node %d buffered-flit fold %d, recount %d", nd.id, got, countableFlits)
			}
			congested := f.congWords[ni>>6]&bit != 0
			if countableFlits >= int(f.markHi) && !congested {
				return fmt.Errorf("node %d occupancy %d >= mark %d but congestion bit clear",
					nd.id, countableFlits, f.markHi)
			}
			if countableFlits <= int(f.markLo) && congested {
				return fmt.Errorf("node %d occupancy %d <= clear threshold %d but congestion bit set",
					nd.id, countableFlits, f.markLo)
			}
		}
	}

	recount := netCounters{
		fullBuffers: fullBuffers,
		latched:     latched,
		ownedOuts:   ownedOuts,
		occupiedIns: occupiedIns,
		pendingIns:  pendingIns,
		srcActive:   srcActive,
	}
	if recount != f.net {
		return fmt.Errorf("network active-set counters %+v, recount %+v", f.net, recount)
	}

	// Walk the per-packet tallies in packet-ID order: buffered is keyed
	// by pointer, so a direct range would surface conservation errors in
	// a different order on every run.
	pkts := make([]*packet.Packet, 0, len(buffered))
	for p := range buffered {
		pkts = append(pkts, p)
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].ID < pkts[j].ID })
	for _, p := range pkts {
		if p.Recycled() {
			return fmt.Errorf("%v recycled but still referenced by network state (use-after-recycle)", p)
		}
		n := buffered[p]
		want := p.Length - p.Consumed
		if f.rec != nil && f.rec.pkt == p {
			want -= f.rec.popped - f.rec.arrived // flits in the recovery lane
		}
		if n != want {
			return fmt.Errorf("%v: %d flits buffered, want %d (consumed %d)", p, n, want, p.Consumed)
		}
		if p.Delivered() {
			return fmt.Errorf("%v delivered but still buffered", p)
		}
	}
	return nil
}
