package packet

import (
	"fmt"

	"repro/internal/topology"
)

// Pool is a deterministic per-engine packet free list. The steady-state
// simulation loop creates one packet per injection and drops one per
// delivery; without recycling, every injection heap-allocates a Packet.
// The pool closes that loop: delivered packets are returned with Put
// and handed back out by Get.
//
// The free list is a plain LIFO stack, not a sync.Pool: sync.Pool's
// reuse order depends on GC timing and per-P caches, which would make
// allocation behavior — and anything that ever observed it — vary from
// run to run, violating the repository's determinism contract. A stack
// owned by a single engine recycles in one fixed order for a fixed
// workload.
//
// Recycling discipline: a packet handed to Put must not be referenced by
// any buffer, latch, or drain afterwards. Each packet carries a recycled
// guard bit; Get clears it, Put sets it. A second Put of the same packet
// is recorded (and the packet is NOT pushed again, which would alias two
// future Gets) so CheckInvariants can report the bug; the router
// fabric's CheckInvariants independently reports any buffered flit whose
// packet is marked recycled (use-after-recycle).
type Pool struct {
	free           []*Packet
	gets           int64
	reuses         int64
	doubleRecycles int64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Prefill stocks the free list with n fresh packets. A harness that
// knows its peak in-flight population can prefill past it so that Get
// never allocates mid-run: without prefilling, every new in-flight
// maximum allocates a packet, and those events decay only
// logarithmically over a run, which turns "zero steady-state
// allocations" into an amortized claim instead of an exact one.
// Gets-minus-Reuses staying flat after a prefill proves the estimate
// covered the peak.
func (pl *Pool) Prefill(n int) {
	for i := 0; i < n; i++ {
		p := New(0, 0, 0, 1, 0)
		p.recycled = true
		pl.free = append(pl.free, p)
	}
}

// Get returns a reset packet, reusing a recycled one when available.
// Arguments are those of New; length must be positive.
//
//stcc:hotpath
func (pl *Pool) Get(id ID, src, dst topology.NodeID, length int, now int64) *Packet {
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.reuses++
		p.reset(id, src, dst, length, now)
		return p
	}
	return New(id, src, dst, length, now)
}

// Put returns a delivered packet to the free list. The caller must hold
// the only live reference. A double Put is recorded for CheckInvariants
// and otherwise ignored: pushing the packet twice would hand the same
// struct to two different Gets.
//
//stcc:hotpath
func (pl *Pool) Put(p *Packet) {
	if p.recycled {
		pl.doubleRecycles++
		return
	}
	p.recycled = true
	pl.free = append(pl.free, p)
}

// Gets returns how many packets Get has handed out.
func (pl *Pool) Gets() int64 { return pl.gets }

// Reuses returns how many Gets were served from the free list.
func (pl *Pool) Reuses() int64 { return pl.reuses }

// CheckInvariants reports recycling-discipline violations observed so
// far: any double Put. It is O(1); the complementary use-after-recycle
// check (a recycled packet still buffered in the network) lives in the
// router fabric's CheckInvariants, which owns the buffers.
func (pl *Pool) CheckInvariants() error {
	if pl.doubleRecycles > 0 {
		return fmt.Errorf("packet: %d double-recycle(s): Put called on an already-recycled packet", pl.doubleRecycles)
	}
	return nil
}
