package a

// Reads of the counters, masks and arrays outside buffer.go are fine —
// the stages use them to skip idle routers and to check credits.
func (f *Fabric) busyNodes() int {
	busy := 0
	for ni := range f.occMask {
		if f.occMask[ni] != 0 || f.latchMask[ni] != 0 || f.ownedMask[ni] != 0 {
			busy++
		}
	}
	return busy
}

// A credit check reads an occ element: fine.
func (f *Fabric) hasCredit(tg int32, depth int) bool { return int(f.occ[tg]) < depth }

// Iterating a snapshot of a bitset word is a read: fine.
func (f *Fabric) activeTotal() int {
	total := 0
	for _, w := range f.actOcc.actWords {
		for w != 0 {
			total++
			w &= w - 1
		}
	}
	return total
}

// A recount into shadowing locals is fine: these are plain ints, not
// the guarded fields, and the comparison struct is a composite literal.
func (f *Fabric) recount() bool {
	var occupiedIns, pendingIns int
	for ni := range f.occMask {
		if f.occMask[ni] != 0 {
			occupiedIns++
			pendingIns++
		}
	}
	return netCounters{occupiedIns: occupiedIns, pendingIns: pendingIns} == f.net
}

// Whole-struct assignment through a pointer names no guarded selector:
// resetting a counter struct stays legal.
func resetCounters(d *netCounters) { *d = netCounters{} }

func (f *Fabric) badDirectWrites(nc *netCounters) {
	nc.latched++           // want `direct write to active-set counter latched outside buffer\.go`
	nc.ownedOuts--         // want `direct write to active-set counter ownedOuts outside buffer\.go`
	nc.occupiedIns = 0     // want `direct write to active-set counter occupiedIns outside buffer\.go`
	nc.pendingIns += 2     // want `direct write to active-set counter pendingIns outside buffer\.go`
	nc.srcActive = 1       // want `direct write to active-set counter srcActive outside buffer\.go`
	f.net.fullBuffers = 12 // want `direct write to active-set counter fullBuffers outside buffer\.go`
	(nc.latched) = 3       // want `direct write to active-set counter latched outside buffer\.go`
}

func (f *Fabric) badArrayWrites(gid int32, ni int) {
	f.occ[gid] = 0           // want `direct write to active-set counter occ outside buffer\.go`
	f.occ[gid]--             // want `direct write to active-set counter occ outside buffer\.go`
	f.occMask[ni] |= 1       // want `direct write to active-set counter occMask outside buffer\.go`
	f.boundMask[ni] = 0      // want `direct write to active-set counter boundMask outside buffer\.go`
	f.headMask[ni] &^= 1     // want `direct write to active-set counter headMask outside buffer\.go`
	f.latchMask[ni] = 0      // want `direct write to active-set counter latchMask outside buffer\.go`
	f.ownedMask[ni] ^= 1     // want `direct write to active-set counter ownedMask outside buffer\.go`
	f.actOcc.actWords[0] = 0 // want `direct write to active-set counter actWords outside buffer\.go`
	f.occ = nil              // want `direct write to active-set counter occ outside buffer\.go`
}

// A controller (or stage) maintaining the congestion-marking state by
// hand would desync the occupancy fold from the occ array it summarizes
// or leak intra-cycle marking order into results: every write path is
// flagged, including "helpfully" refreshing the snapshot mid-cycle.
func (f *Fabric) badCongestionWrites(ni int32) {
	f.nodeOcc[ni]++                          // want `direct write to active-set counter nodeOcc outside buffer\.go`
	f.nodeOcc[ni] = 0                        // want `direct write to active-set counter nodeOcc outside buffer\.go`
	f.congWords[ni>>6] |= 1 << uint(ni&63)   // want `direct write to active-set counter congWords outside buffer\.go`
	f.congWords[ni>>6] &^= 1 << uint(ni&63)  // want `direct write to active-set counter congWords outside buffer\.go`
	f.congStable[ni>>6] = f.congWords[ni>>6] // want `direct write to active-set counter congStable outside buffer\.go`
	orWord(&f.congWords[0], 1)               // want `taking the address of active-set counter congWords outside buffer\.go`
	f.congStable = nil                       // want `direct write to active-set counter congStable outside buffer\.go`
}

// The lane masks' backing array is as guarded as the masks themselves,
// and the builtins copy and clear write through their first argument,
// whole or sliced.
func (f *Fabric) badBulkWrites(ni int, src []int32) {
	f.masks[ni] |= 1                         // want `direct write to active-set counter masks outside buffer\.go`
	clear(f.occMask)                         // want `clear into active-set counter occMask outside buffer\.go`
	clear(f.masks[ni:])                      // want `clear into active-set counter masks outside buffer\.go`
	copy(f.occ, src)                         // want `copy into active-set counter occ outside buffer\.go`
	copy((f.congStable)[1:], f.congWords)    // want `copy into active-set counter congStable outside buffer\.go`
	_ = copy(f.actOcc.actWords, f.congWords) // want `copy into active-set counter actWords outside buffer\.go`
}

// Copying out of a guarded field, or clearing a local, is a read of the
// field: fine.
func (f *Fabric) snapshotOcc(dst []int32) {
	copy(dst, f.occ)
	local := f.occMask
	_ = local
	scratch := make([]uint64, len(f.masks))
	copy(scratch, f.masks)
	clear(scratch)
}

// Reading the congestion state is fine: the engine's edge scan and the
// invariant checker do it constantly.
func (f *Fabric) congestedRouters() int {
	total := 0
	for _, w := range f.congWords {
		for w != 0 {
			total++
			w &= w - 1
		}
	}
	return total
}

// Writing a bitset through its address — even "correctly" — would let
// it drift from the lane masks under a future edit: flagged.
func (f *Fabric) badBitsetAddress() {
	orWord(&f.actOcc.actWords[0], 1) // want `taking the address of active-set counter actWords outside buffer\.go`
}

func (f *Fabric) badAddress(nc *netCounters) *int {
	_ = &f.occ[0]         // want `taking the address of active-set counter occ outside buffer\.go`
	return &nc.pendingIns // want `taking the address of active-set counter pendingIns outside buffer\.go`
}

// unguarded fields with other names are untouched by the analyzer.
type other struct{ count int }

func bump(o *other) { o.count++ }
