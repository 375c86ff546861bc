package sideband

import (
	"testing"

	"repro/internal/topology"
)

// pending counts the notices queued on the wheel.
func pending(n *Notifier) int {
	total := 0
	for _, slot := range n.wheel {
		total += len(slot)
	}
	return total
}

// TestNotifierDeliveryTiming checks the timing wheel against the model:
// a broadcast at cycle c reaches each source at c + HopDelay*distance
// (minimum one cycle, so even the origin's own source learns at a cycle
// boundary).
func TestNotifierDeliveryTiming(t *testing.T) {
	topo := topology.MustNew(4, 2) // 16 nodes, diameter 4
	nf := NewNotifier(topo, 2)
	const origin = topology.NodeID(5)
	nf.Broadcast(10, origin)
	if got := pending(nf); got != topo.Nodes() {
		t.Fatalf("%d notifications queued, want one per node (%d)", got, topo.Nodes())
	}

	arrived := make(map[topology.NodeID]int64)
	for now := int64(11); now <= 10+2*4; now++ {
		for _, to := range nf.Deliver(now) {
			if _, dup := arrived[to]; dup {
				t.Fatalf("node %d notified twice", to)
			}
			arrived[to] = now
		}
	}
	for to := 0; to < topo.Nodes(); to++ {
		want := 10 + 2*int64(topo.Distance(origin, topology.NodeID(to)))
		if topology.NodeID(to) == origin {
			want = 11 // distance 0, clamped to one cycle
		}
		if got := arrived[topology.NodeID(to)]; got != want {
			t.Fatalf("node %d notified at %d, want %d", to, got, want)
		}
	}
	if got := pending(nf); got != 0 {
		t.Fatalf("%d notifications left after the last arrival", got)
	}
}

// TestNotifierSteadyStateAllocs checks the wheel's slots retain their
// backing arrays across revolutions: once warm, broadcast plus delivery
// is allocation-free, which is what lets the notify controller call
// them every cycle under the hot-path discipline.
func TestNotifierSteadyStateAllocs(t *testing.T) {
	topo := topology.MustNew(4, 2)
	nf := NewNotifier(topo, 1)
	now := int64(0)
	tick := func() {
		nf.Deliver(now)
		nf.Broadcast(now, topology.NodeID(now)%topology.NodeID(topo.Nodes()))
		now++
	}
	for i := 0; i < 64; i++ { // several full wheel revolutions
		tick()
	}
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Fatalf("steady-state broadcast+deliver allocates %.1f times per cycle, want 0", avg)
	}
}
