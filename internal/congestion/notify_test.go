package congestion

import (
	"testing"

	"repro/internal/topology"
)

// fakeBits is a GlobalView whose congestion bits a test sets by hand,
// standing in for the router fabric between network cycles.
type fakeBits struct {
	nodes int
	words []uint64
}

func (f *fakeBits) Nodes() int               { return f.nodes }
func (f *fakeBits) CongestionBits() []uint64 { return f.words }

func (f *fakeBits) set(node topology.NodeID, on bool) {
	if on {
		f.words[node>>6] |= 1 << uint(node&63)
	} else {
		f.words[node>>6] &^= 1 << uint(node&63)
	}
}

// TestNotifyStalenessExpiry drives Notify through Tick as the engine
// does — tick, injection decisions, then the network cycle that may
// change the bits — and checks every source's gate, every cycle,
// against the model: a bit that rises in cycle c gates source s from
// c + max(1, h*dist) for staleness cycles. The script holds a bit set
// (one broadcast, no refresh), clears and re-raises it (a refresh that
// extends the gate) and raises a far router's bit whose older news
// reaches some sources after newer news from a near one; the gate is
// the union of the notices' windows, so nothing ever shortens it.
func TestNotifyStalenessExpiry(t *testing.T) {
	const (
		hop       = 2
		staleness = 10
		cycles    = 56
	)
	topo := topology.MustNew(4, 2) // 16 nodes, diameter 4
	view := &fakeBits{nodes: topo.Nodes(), words: make([]uint64, 1)}
	n := NewNotify(topo, view, hop, staleness)

	type change struct {
		cycle  int64
		router topology.NodeID
		on     bool
	}
	script := []change{{3, 5, true}, {8, 5, false}, {12, 5, true}, {30, 0, true}, {32, 15, true}}
	type edge struct {
		cycle  int64
		router topology.NodeID
	}
	rises := []edge{{3, 5}, {12, 5}, {30, 0}, {32, 15}}
	model := func(now int64, src topology.NodeID) bool {
		for _, e := range rises {
			arrive := e.cycle + max(1, hop*int64(topo.Distance(e.router, src)))
			if now >= arrive && now < arrive+staleness {
				return true
			}
		}
		return false
	}

	gated := make([][cycles]bool, topo.Nodes())
	for now := int64(0); now < cycles; now++ {
		n.Tick(now)
		for s := range gated {
			src := topology.NodeID(s)
			gated[s][now] = !n.AllowInjection(now, src, 0)
			if want := model(now, src); gated[s][now] != want {
				t.Fatalf("cycle %d source %d: gated=%v, want %v", now, s, gated[s][now], want)
			}
		}
		for _, c := range script {
			if c.cycle == now {
				view.set(c.router, c.on)
			}
		}
	}

	// Spot checks of the model itself. The origin's own source learns
	// one cycle after the rise, and the refresh at 12 carries its gate
	// from 4 to 23.
	if g := gated[5]; g[3] || !g[4] || !g[22] || g[23] {
		t.Error("origin source's first gate is not [4, 23)")
	}
	// Source 10 is 4 hops from router 0 and 2 from router 15: the older
	// notice (rise 30, arrives 38) comes after the newer one (rise 32,
	// arrives 36) and extends the gate to 48.
	if g := gated[10]; g[35] || !g[36] || !g[47] || g[48] {
		t.Error("source 10's last gate is not [36, 48)")
	}
}

// TestNotifyIgnoresOtherFeedback checks packet events never gate: a
// Notify fed injections and marked deliveries for every source, with no
// congestion bit ever rising (or marking disabled altogether, a nil
// bitset), lets every source inject every cycle.
func TestNotifyIgnoresOtherFeedback(t *testing.T) {
	topo := topology.MustNew(4, 2)
	for _, words := range [][]uint64{make([]uint64, 1), nil} {
		n := NewNotify(topo, &fakeBits{nodes: topo.Nodes(), words: words}, 1, 10)
		for now := int64(0); now < 20; now++ {
			n.Tick(now)
			for s := 0; s < topo.Nodes(); s++ {
				src := topology.NodeID(s)
				if !n.AllowInjection(now, src, 0) {
					t.Fatalf("cycle %d: source %d gated with no congestion bit raised", now, s)
				}
				n.Observe(FeedbackEvent{Kind: PacketInjected, Cycle: now, Source: src})
				n.Observe(FeedbackEvent{Kind: PacketDelivered, Cycle: now, Source: src, Router: 3, Marked: true})
			}
		}
	}
}
