package router

import (
	"fmt"

	"repro/internal/packet"
)

// CheckInvariants walks the whole fabric and verifies structural
// invariants: buffer occupancy bounds and the occ array, the per-node
// lane masks and node-level active bitsets the stages iterate, the
// incremental full-buffer counter and network active-set sums, wormhole
// binding/ownership consistency, the packet table (every flit, latch,
// source slot and the recovery drain names a live slot, every live slot
// is named by one of them, and free slots are empty and distinct),
// per-packet flit conservation (buffered + consumed + in the recovery
// lane == length), and the packet-recycling guard: no packet in the
// table may be one already returned to a packet.Pool.
// It exists for tests and debugging; it is O(network size) and is never
// called by Step.
func (f *Fabric) CheckInvariants() error {
	t := &f.slots
	capacity := t.used << slotChunkBits // slots threaded so far, slot 0 included
	// lookup returns the packet at slot s, or nil for slot 0, a slot
	// past the threaded chunks or a free slot.
	lookup := func(s int32) *packet.Packet {
		if s <= 0 || int(s) >= capacity {
			return nil
		}
		return t.get(s)
	}
	held := make([]int, capacity)   // flits per slot in buffers, latches and source streams
	named := make([]bool, capacity) // slots a flit, latch, source or the drain names
	// Recount into plain locals (counterguard confines netCounters field
	// writes to buffer.go); the comparison builds a struct at the end.
	var fullBuffers, latched, ownedOuts, occupiedIns, pendingIns, srcActive int

	for ni := range f.nodes {
		nd := &f.nodes[ni]
		var occMask, boundMask, headMask, frozenMask, latchMask, ownedMask uint64
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
			if b.countable && b.full(f) {
				fullBuffers++
			}
			bit := uint64(1) << b.lane
			if n > 0 {
				occMask |= bit
				occupiedIns++
				if fl := b.front(f); fl.isHead() {
					headMask |= bit
					if p := lookup(fl.slot); p != nil && p.Mode.Frozen() {
						frozenMask |= bit
					}
				}
				if !b.bound() {
					pendingIns++
				}
			}
			if b.bound() {
				boundMask |= bit
			}
			for i := 0; i < int(f.depth); i++ {
				fl := b.at(f, int32(i))
				if i < n {
					if !fl.valid() {
						return fmt.Errorf("%v holds a nil flit at %d", b, i)
					}
					if lookup(fl.slot) == nil {
						return fmt.Errorf("%v holds a flit of free slot %d at %d", b, fl.slot, i)
					}
					held[fl.slot]++
					named[fl.slot] = true
				} else if fl.valid() {
					// The ring outside [head, head+n) must be vacated: pop
					// zeroes slots, so a stale flit means corruption.
					return fmt.Errorf("%v holds a stale flit outside its occupied window", b)
				}
			}
			if b.bound() {
				if lookup(b.boundSlot) == nil {
					return fmt.Errorf("%v bound to free slot %d", b, b.boundSlot)
				}
				o := f.outputVC(ni, int(b.outPort), int(b.outVC))
				if o.ownerSlot != b.boundSlot {
					return fmt.Errorf("%v bound to slot %d but output VC owned by slot %d", b, b.boundSlot, o.ownerSlot)
				}
				// The crossbar moves the owner buffer's front flit as the
				// owner's: the front of a bound buffer is its packet's.
				if fl := b.front(f); n > 0 && fl.slot != b.boundSlot {
					return fmt.Errorf("%v bound to slot %d but its front flit is slot %d's", b, b.boundSlot, fl.slot)
				}
			}
		}
		for lane := 0; lane < f.lanesOut; lane++ {
			o := &f.outsA[ni*f.lanesOut+lane]
			bit := uint64(1) << o.lat.lane
			if o.lat.full {
				if !o.lat.f.valid() {
					return fmt.Errorf("%v holds a nil flit", &o.lat)
				}
				if lookup(o.lat.f.slot) == nil {
					return fmt.Errorf("%v holds a flit of free slot %d", &o.lat, o.lat.f.slot)
				}
				// The link stage reads a latched flit's packet through the
				// output VC's owner.
				if o.lat.f.slot != o.ownerSlot {
					return fmt.Errorf("%v holds a flit of slot %d, but its output VC is owned by slot %d",
						&o.lat, o.lat.f.slot, o.ownerSlot)
				}
				held[o.lat.f.slot]++
				named[o.lat.f.slot] = true
				latchMask |= bit
				latched++
			}
			if o.free() {
				if o.ownerPkt != nil || o.owner != 0 {
					return fmt.Errorf("output VC at node %d: free but owned by %v at input lane %d", nd.id, o.ownerPkt, o.owner)
				}
				continue
			}
			if p := lookup(o.ownerSlot); p == nil || p != o.ownerPkt {
				return fmt.Errorf("%v owned by %v, but its slot %d holds %v", &o.lat, o.ownerPkt, o.ownerSlot, p)
			}
			ownedMask |= bit
			ownedOuts++
			// Deadlock recovery walks this chain upstream from a worm's
			// header: an owned output VC's owner buffer is bound to the
			// owning packet until the packet's tail has left it for this
			// VC's latch.
			owner := &f.bufs[o.owner]
			tailLatched := o.lat.full && o.lat.f.isTailOf(o.ownerPkt)
			if !tailLatched && owner.boundSlot != o.ownerSlot {
				return fmt.Errorf("%v owned by %v but its owner %v is bound to slot %d",
					&o.lat, o.ownerPkt, owner, owner.boundSlot)
			}
		}
		if p := nd.src.pkt; p != nil {
			if lookup(nd.src.slot) != p {
				return fmt.Errorf("node %d streams %v, but its slot %d holds %v", nd.id, p, nd.src.slot, lookup(nd.src.slot))
			}
			held[nd.src.slot] += p.SrcRemaining
			named[nd.src.slot] = true
			srcActive++
		}

		if occMask != f.occMask[ni] || boundMask != f.boundMask[ni] || headMask != f.headMask[ni] ||
			frozenMask != f.frozenMask[ni] || latchMask != f.latchMask[ni] || ownedMask != f.ownedMask[ni] {
			return fmt.Errorf("node %d lane masks (occ %x bound %x head %x frozen %x latch %x owned %x), recount (%x %x %x %x %x %x)",
				nd.id, f.occMask[ni], f.boundMask[ni], f.headMask[ni], f.frozenMask[ni], f.latchMask[ni], f.ownedMask[ni],
				occMask, boundMask, headMask, frozenMask, latchMask, ownedMask)
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
	if r := f.rec; r != nil {
		if lookup(r.slot) != r.pkt {
			return fmt.Errorf("recovery drains %v, but its slot %d holds %v", r.pkt, r.slot, lookup(r.slot))
		}
		named[r.slot] = true
	}

	// The free list: empty slots, each once, and with the live slots
	// every slot threaded so far.
	free := 0
	onList := make([]bool, capacity)
	for s := t.free; s != 0; s = t.chunks[s>>slotChunkBits].next[s&slotChunkMask] {
		if s < 0 || int(s) >= capacity {
			return fmt.Errorf("packet table: free list reaches slot %d outside its %d slots", s, capacity)
		}
		if onList[s] {
			return fmt.Errorf("packet table: slot %d is on the free list twice", s)
		}
		if p := t.get(s); p != nil {
			return fmt.Errorf("packet table: free slot %d holds %v", s, p)
		}
		onList[s] = true
		free++
	}

	// Walk the live slots in slot order, so the first error found is the
	// same on every run.
	live := 0
	for s := int32(1); int(s) < capacity; s++ {
		p := t.get(s)
		if p == nil {
			continue
		}
		live++
		if p.Recycled() {
			return fmt.Errorf("%v recycled but still in the packet table at slot %d (use-after-recycle)", p, s)
		}
		if !named[s] {
			return fmt.Errorf("%v at slot %d, but no flit, latch, source or recovery drain names it", p, s)
		}
		want := p.Length - p.Consumed
		if f.rec != nil && f.rec.slot == s {
			want -= f.rec.popped - f.rec.arrived // flits in the recovery lane
		}
		if held[s] != want {
			return fmt.Errorf("%v: %d flits buffered, want %d (consumed %d)", p, held[s], want, p.Consumed)
		}
		if p.Delivered() {
			return fmt.Errorf("%v delivered but still buffered", p)
		}
	}
	if threaded := max(capacity-1, 0); live != f.InFlight() || live+free != threaded { // slot 0 is never handed out
		return fmt.Errorf("packet table: %d live and %d free of %d slots, %d in flight", live, free, threaded, f.InFlight())
	}
	return nil
}
