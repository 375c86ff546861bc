// Package a is the counterguard fixture. This file plays the role of
// internal/router/buffer.go: the accessor layer that is allowed to
// mutate the active-set counters and the structure-of-arrays hot state.
package a

// netCounters mirrors the router's network-wide active-set sums.
type netCounters struct {
	fullBuffers int
	latched     int
	ownedOuts   int
	occupiedIns int
	pendingIns  int
	srcActive   int
}

// activeWords mirrors the node-level active bitsets; maintaining them
// is legal here and only here.
type activeWords struct {
	actWords []uint64
}

func (a *activeWords) set(i int32) { a.actWords[i>>6] |= 1 << uint(i&63) }

func (a *activeWords) clearBit(i int32) { a.actWords[i>>6] &^= 1 << uint(i&63) }

// orWord stands in for any helper that writes through a pointer, such
// as sync/atomic.OrUint64 (fixture packages avoid real imports).
func orWord(p *uint64, v uint64) { *p |= v }

// Fabric mirrors the router fabric's counter-bearing struct: the SoA
// occupancy array, the per-node lane masks and the allocation they are
// windows of, a bitset, the sums, and the DECbit congestion-marking
// state (per-node occupancy fold, live congestion bitset, cycle-stable
// snapshot).
type Fabric struct {
	occ        []int32
	masks      []uint64
	occMask    []uint64
	boundMask  []uint64
	headMask   []uint64
	latchMask  []uint64
	ownedMask  []uint64
	actOcc     activeWords
	net        netCounters
	nodeOcc    []int32
	congWords  []uint64
	congStable []uint64
	markHi     int32
}

type vcBuffer struct {
	fab  *Fabric
	node int32
	gid  int32
	lane uint8
}

// initSoA constructs the guarded arrays: legal here.
func (f *Fabric) initSoA(nodes, lanes int) {
	f.occ = make([]int32, nodes*lanes)
	f.masks = make([]uint64, 2*nodes)
	f.occMask = f.masks[:nodes:nodes]
	f.boundMask = make([]uint64, nodes)
	f.headMask = make([]uint64, nodes)
	f.latchMask = make([]uint64, nodes)
	f.ownedMask = make([]uint64, nodes)
	f.actOcc.actWords = make([]uint64, (nodes+63)>>6)
	f.nodeOcc = make([]int32, nodes)
	f.congWords = make([]uint64, (nodes+63)>>6)
	f.congStable = make([]uint64, (nodes+63)>>6)
}

// resetMasks zeroes the lane masks of a reused fabric: legal here.
func (f *Fabric) resetMasks() { clear(f.masks) }

// snapshotCongestion copies the live congestion bits into the
// cycle-stable snapshot: legal here.
func (f *Fabric) snapshotCongestion() { copy(f.congStable, f.congWords) }

// push is an accessor: counter, array and mask writes here are legal.
func (b *vcBuffer) push() {
	fab := b.fab
	n := fab.occ[b.gid]
	fab.occ[b.gid] = n + 1
	if n == 0 {
		fab.occMask[b.node] |= 1 << b.lane
		fab.actOcc.set(b.node)
		fab.net.occupiedIns++
		fab.net.pendingIns++
	}
	fab.net.fullBuffers++
	// DECbit maintenance rides the same accessor: legal here.
	no := fab.nodeOcc[b.node] + 1
	fab.nodeOcc[b.node] = no
	if no >= fab.markHi {
		fab.congWords[b.node>>6] |= 1 << uint(b.node&63)
	}
}

// pop is an accessor: counter writes here are legal.
func (b *vcBuffer) pop() {
	fab := b.fab
	fab.net.fullBuffers--
	fab.occ[b.gid]--
	if fab.occ[b.gid] == 0 {
		fab.occMask[b.node] &^= 1 << b.lane
		if fab.occMask[b.node] == 0 {
			fab.actOcc.clearBit(b.node)
		}
		fab.net.occupiedIns--
	}
}

func (f *Fabric) acquire(ni int32) {
	f.ownedMask[ni] |= 1
	f.net.ownedOuts++
}

func (f *Fabric) latch(ni int32) {
	f.latchMask[ni] |= 1
	f.net.latched += 1
}
