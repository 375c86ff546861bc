package sim

import (
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// entries returns node n's queued creation cycles, oldest first, by
// walking its page chain.
func (s *sourceQueues) entries(n int) []int64 {
	q := s.q[n]
	out := make([]int64, 0, q.n)
	id, slot := q.head, q.lo
	for len(out) < q.n {
		if slot == pageLen {
			id, slot = s.pageAt(id).next, 0
		}
		out = append(out, s.pageAt(id).created[slot])
		slot++
	}
	return out
}

// TestPageFillsSizeClass pins the layout pageLen and slabPages are
// chosen for: a 256 B page with no padding, and a slab that is exactly
// the 8 KB allocator size class.
func TestPageFillsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(page{}); size != 256 {
		t.Fatalf("page is %d bytes, want 256", size)
	}
	if size := unsafe.Sizeof([slabPages]page{}); size != 8192 {
		t.Fatalf("slab is %d bytes, want 8192", size)
	}
}

// TestSourceQueuesFIFO drives two nodes' queues across many page
// boundaries with interleaved pushes and pops, checking strict FIFO
// order and destinations, then drains one to empty and refills it.
func TestSourceQueuesFIFO(t *testing.T) {
	s := newSourceQueues(2, sourceQueues{})
	next := [2]int64{}
	want := [2]int64{}
	push := func(n, k int) {
		for i := 0; i < k; i++ {
			s.push(n, next[n], topology.NodeID(next[n]%7))
			next[n]++
		}
	}
	pop := func(n, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			created, dst := s.front(n)
			if created != want[n] || dst != topology.NodeID(want[n]%7) {
				t.Fatalf("node %d front = {%d %d}, want {%d %d}", n, created, dst, want[n], want[n]%7)
			}
			s.pop(n)
			want[n]++
		}
	}

	push(0, 3)
	pop(0, 2)
	push(1, 5*pageLen+3) // node 1 spans six pages
	push(0, pageLen)     // node 0's tail crosses a boundary mid-page
	pop(1, 2*pageLen+1)
	for round := 0; round < 50; round++ {
		push(0, 7)
		push(1, 3)
		pop(0, 5)
		pop(1, 4)
	}
	for n := 0; n < 2; n++ {
		if s.len(n) != int(next[n]-want[n]) {
			t.Fatalf("node %d len = %d, want %d", n, s.len(n), next[n]-want[n])
		}
		if got := s.entries(n); len(got) != s.len(n) || (len(got) > 0 && got[0] != want[n]) {
			t.Fatalf("node %d page walk %v, want %d entries from %d", n, got, s.len(n), want[n])
		}
	}

	// Drain node 0 to empty: it keeps one page and refills it in order.
	pop(0, s.len(0))
	if s.len(0) != 0 {
		t.Fatalf("len = %d after drain, want 0", s.len(0))
	}
	q := s.q[0]
	if q.head == 0 || q.head != q.tail || q.lo != 0 || q.hi != 0 {
		t.Fatalf("drained queue %+v, want one page rewound to slot 0", q)
	}
	push(0, 2*pageLen+5)
	pop(0, s.len(0))
	pop(1, s.len(1))
}

// TestSourceQueuesShareFreePages checks that a page one node drains is
// the page the next node to cross a boundary takes, that a constant
// backlog takes no new page however long it runs, and that a backlog
// moving between nodes costs its peak total, not each node's peak.
func TestSourceQueuesShareFreePages(t *testing.T) {
	s := newSourceQueues(4, sourceQueues{})
	for i := 0; i < 3*pageLen; i++ {
		s.push(0, int64(i), 1)
	}
	pages := s.used
	for i := 0; i < pageLen; i++ {
		s.pop(0)
	}
	freed := s.free
	if freed == 0 {
		t.Fatal("draining a full head page freed nothing")
	}
	s.push(2, 0, 3) // node 2's first page is node 0's drained one
	if s.q[2].head != freed || s.used != pages {
		t.Fatalf("node 2 took page %d (%d pages used), want freed page %d (%d used)",
			s.q[2].head, s.used, freed, pages)
	}
	s.pop(2)

	// Constant backlog: after one lap through its pages, a queue that
	// pushes one entry per pop only ever reuses freed pages.
	for i := 0; i < 2*pageLen; i++ {
		s.push(0, 0, 1)
		s.pop(0)
	}
	pages = s.used
	for i := 0; i < 100*pageLen; i++ {
		s.push(0, 0, 1)
		s.pop(0)
	}
	if s.used != pages {
		t.Fatalf("constant backlog of %d grew the pages used %d -> %d", s.len(0), pages, s.used)
	}

	// A backlog of ten pages moving round the four nodes: per-node
	// peaks would sum to forty pages; shared pages stay near ten.
	for n := 0; n < 4; n++ {
		for s.len(n) > 0 {
			s.pop(n)
		}
	}
	for i := 0; i < 10*pageLen; i++ {
		s.push(0, 0, 1)
	}
	for round := 0; round < 40; round++ {
		from, to := round%4, (round+1)%4
		for s.len(from) > 0 {
			s.pop(from)
			s.push(to, 0, 1)
		}
	}
	if limit := int32(10 + 2*4); s.used > limit {
		t.Fatalf("a 10-page backlog moving between 4 nodes built %d pages, want <= %d", s.used, limit)
	}
}

// TestLongBacklogDrainsFIFO backlogs the source queues across many
// pages and then drains them through the engine's injection path,
// asserting packets are created in generation order.
func TestLongBacklogDrainsFIFO(t *testing.T) {
	cfg := NewConfig()
	cfg.K, cfg.N = 4, 2
	cfg.VCs, cfg.BufDepth = 2, 2
	cfg.PacketLength = 16
	cfg.Rate = 0.5 // far past saturation: queues backlog by thousands
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40
	cfg.Scheme = Scheme{Kind: Base}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		e.Step()
	}
	nodes := len(e.queues.q)
	backlog := 0
	for n := 0; n < nodes; n++ {
		if l := e.queues.len(n); l > backlog {
			backlog = l
		}
	}
	if backlog < 500 {
		t.Fatalf("deepest backlog %d, want >= 500 (load too low to span many pages)", backlog)
	}

	// Per-queue FIFO: entries must sit in strictly increasing generation
	// order across every page boundary.
	for n := 0; n < nodes; n++ {
		got := e.queues.entries(n)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("queue %d: entry %d created %d, predecessor %d", n, i, got[i], got[i-1])
			}
		}
	}

	// Keep stepping and watch each node's queue front. A node generates
	// at most one entry per cycle, so entries in one queue carry strictly
	// increasing creation cycles, and a front-value change means the old
	// front was injected. Every node must inject its backlog in strictly
	// increasing creation order.
	lastCreated := make([]int64, nodes)
	for n := range lastCreated {
		lastCreated[n] = -1
	}
	injections := 0
	before := make([]int64, nodes)
	for i := 0; i < 20_000; i++ {
		for n := 0; n < nodes; n++ {
			before[n] = -1
			if e.queues.len(n) > 0 {
				before[n], _ = e.queues.front(n)
			}
		}
		e.Step()
		for n := 0; n < nodes; n++ {
			if before[n] < 0 {
				continue
			}
			injected := e.queues.len(n) == 0
			if !injected {
				front, _ := e.queues.front(n)
				injected = front != before[n]
			}
			if injected {
				// This node injected its front entry this cycle.
				if before[n] <= lastCreated[n] {
					t.Fatalf("node %d injected packet created %d after one created %d",
						n, before[n], lastCreated[n])
				}
				lastCreated[n] = before[n]
				injections++
			}
		}
	}
	if injections == 0 {
		t.Fatal("observation phase saw no injections")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
