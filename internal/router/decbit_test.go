package router

import (
	"testing"

	"repro/internal/packet"
)

// decbitHarness drives raw pushes and pops against one node's countable
// input buffers so the congestion bit can be walked through its whole
// hysteresis band without the routing stages interfering.
type decbitHarness struct {
	t    *testing.T
	f    *Fabric
	bufs []*vcBuffer
	pkt  *packet.Packet // filler body flits; never routed
	occ  int
}

func newDecbitHarness(t *testing.T, mark float64) *decbitHarness {
	cfg := testConfig(4, Recovery)
	cfg.CongestMark = mark
	h := &decbitHarness{t: t, f: MustNew(cfg), pkt: packet.New(1, 0, 1, 1, 0)}
	for lane := 0; lane < h.f.lanesIn; lane++ {
		if b := &h.f.bufs[lane]; b.countable {
			h.bufs = append(h.bufs, b)
		}
	}
	return h
}

// push adds one body flit to the first countable buffer with space.
func (h *decbitHarness) push() {
	for _, b := range h.bufs {
		if !b.full() {
			b.push(flit{pkt: h.pkt, idx: 1})
			h.occ++
			return
		}
	}
	h.t.Fatal("node 0 out of countable buffer space")
}

// pop removes one flit from the first non-empty countable buffer.
func (h *decbitHarness) pop() {
	for _, b := range h.bufs {
		if b.len() > 0 {
			b.pop()
			h.occ--
			return
		}
	}
	h.t.Fatal("nothing buffered to pop")
}

func (h *decbitHarness) check(want bool) {
	h.t.Helper()
	if got := h.f.CongestedAt(0); got != want {
		h.t.Fatalf("occupancy %d: congestion bit %v, want %v", h.occ, got, want)
	}
}

// TestCongestionBitHysteresis walks node 0's buffered-flit count across
// the full hysteresis band in both directions: the bit sets exactly at
// the mark threshold, holds through the band on the way down until the
// clear threshold, and stays clear back up through the band until the
// mark threshold again.
func TestCongestionBitHysteresis(t *testing.T) {
	h := newDecbitHarness(t, 0.5)
	hi, lo := h.f.CongestMarks()
	if hi <= lo || lo < 0 {
		t.Fatalf("mark thresholds hi %d, lo %d malformed", hi, lo)
	}

	// Rising from empty: clear strictly below hi, set at hi.
	for h.occ < hi {
		h.check(false)
		h.push()
	}
	h.check(true)
	if got := h.f.CongestedRouters(); got != 1 {
		t.Fatalf("CongestedRouters %d, want 1", got)
	}
	h.push()
	h.check(true) // above hi it stays set

	// Falling: the band [lo+1, hi-1] is sticky on the way down.
	for h.occ > lo {
		h.check(true)
		h.pop()
	}
	h.check(false)
	if got := h.f.CongestedRouters(); got != 0 {
		t.Fatalf("CongestedRouters %d after clear, want 0", got)
	}

	// Rising again: the same band is now clear until hi is re-crossed.
	for h.occ < hi {
		h.check(false)
		h.push()
	}
	h.check(true)
}

// TestHeaderMarkingUsesSnapshot checks packets are marked against the
// cycle-stable congestion snapshot, not the live bit: a header pushed
// after the live bit rises but before the next snapshot is unmarked,
// and one pushed after the snapshot is marked. Body flits are never
// marked carriers.
func TestHeaderMarkingUsesSnapshot(t *testing.T) {
	h := newDecbitHarness(t, 0.5)
	hi, lo := h.f.CongestMarks()
	for h.occ < hi {
		h.push()
	}
	h.check(true)

	// Live bit set, snapshot still from the empty network: no mark.
	early := packet.New(2, 0, 1, 4, 0)
	h.bufs[len(h.bufs)-1].push(flit{pkt: early, idx: 0})
	if early.Marked {
		t.Fatal("header marked against the live bit before any snapshot")
	}

	h.f.snapshotCongestion()
	late := packet.New(3, 0, 1, 4, 0)
	h.bufs[len(h.bufs)-1].push(flit{pkt: late, idx: 0})
	if !late.Marked {
		t.Fatal("header pushed at a congested router after the snapshot not marked")
	}
	body := packet.New(4, 0, 1, 4, 0)
	h.bufs[len(h.bufs)-1].push(flit{pkt: body, idx: 1})
	if body.Marked {
		t.Fatal("body flit marked its packet")
	}

	// Drain below the clear threshold and refresh the snapshot: new
	// headers are unmarked again.
	for h.occ+3 > lo { // +3: the three probe flits above are uncounted by occ
		h.pop()
	}
	h.check(false)
	h.f.snapshotCongestion()
	after := packet.New(5, 0, 1, 4, 0)
	h.bufs[0].push(flit{pkt: after, idx: 0})
	if after.Marked {
		t.Fatal("header marked after the router drained and the snapshot refreshed")
	}
}
