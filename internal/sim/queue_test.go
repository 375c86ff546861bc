package sim

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// queued is one source-queue entry as a slice FIFO holds it.
type queued struct {
	created int64
	dst     topology.NodeID
}

// queueModel drives sourceQueues beside one slice FIFO per node and
// checks every front against the slice's.
type queueModel struct {
	s    sourceQueues
	want [][]queued
	last []int64 // newest creation cycle pushed to each node
}

// newQueueModel returns empty queues for nodes nodes built in old's
// storage, with empty model FIFOs.
func newQueueModel(nodes int, old sourceQueues) *queueModel {
	return &queueModel{
		s:    newSourceQueues(nodes, old),
		want: make([][]queued, nodes),
		last: make([]int64, nodes),
	}
}

// push appends an entry created gap cycles after node n's newest.
func (m *queueModel) push(n int, gap int64, dst topology.NodeID) {
	m.last[n] += gap
	m.s.push(n, m.last[n], dst)
	m.want[n] = append(m.want[n], queued{m.last[n], dst})
}

// pop removes node n's oldest entry, which must match the model's.
func (m *queueModel) pop(n int) error {
	created, dst := m.s.front(n)
	if w := m.want[n][0]; created != w.created || dst != w.dst {
		return fmt.Errorf("node %d front = {%d %d}, want {%d %d}", n, created, dst, w.created, w.dst)
	}
	m.s.pop(n)
	m.want[n] = m.want[n][1:]
	if got, want := m.s.len(n), len(m.want[n]); got != want {
		return fmt.Errorf("node %d len = %d after pop, want %d", n, got, want)
	}
	return nil
}

// popN pops k entries off node n, failing t at the first mismatch.
func (m *queueModel) popN(t *testing.T, n, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := m.pop(n); err != nil {
			t.Fatal(err)
		}
	}
}

// chainPages returns how many pages node n's queue spans.
func (s *sourceQueues) chainPages(n int) int {
	q := s.q[n]
	if q.head == 0 {
		return 0
	}
	pages := 1
	for id := q.head; id != q.tail; id = s.pageAt(id).next {
		pages++
	}
	return pages
}

// TestPageFillsSizeClass pins the layout pageBytes and slabPages are
// chosen for: a 256 B page with no padding, a slab that is exactly the
// 8 KB allocator size class, and a 32 B per-node queue header.
func TestPageFillsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(page{}); size != 256 {
		t.Fatalf("page is %d bytes, want 256", size)
	}
	if size := unsafe.Sizeof([slabPages]page{}); size != 8192 {
		t.Fatalf("slab is %d bytes, want 8192", size)
	}
	if size := unsafe.Sizeof(nodeQueue{}); size != 32 {
		t.Fatalf("nodeQueue is %d bytes, want 32", size)
	}
}

// TestSourceQueuesFIFO drives two nodes' queues across many page
// boundaries with interleaved pushes and pops of entries whose gaps
// take 1 to 9 bytes and whose destinations take 1 to 4, checking strict
// FIFO order and destinations, then drains one to empty and refills it.
func TestSourceQueuesFIFO(t *testing.T) {
	gaps := []int64{1, 2, 130, 20_000, 1 << 21, 1 << 35, 3}
	dsts := []topology.NodeID{0, 5, 127, 128, 16_383, 1<<26 - 1}
	m := newQueueModel(2, sourceQueues{})
	var pushed [2]int
	push := func(n, k int) {
		for i := 0; i < k; i++ {
			m.push(n, gaps[pushed[n]%len(gaps)], dsts[pushed[n]%len(dsts)])
			pushed[n]++
		}
	}
	pop := func(n, k int) { t.Helper(); m.popN(t, n, k) }

	m.push(0, 1<<62, 1<<26-1) // the longest entry: a 9-byte gap and a 4-byte destination
	push(0, 2)
	pop(0, 2)
	push(1, 400) // about 4.6 B an entry: node 1 spans at least six pages
	if pages := m.s.chainPages(1); pages < 6 {
		t.Fatalf("node 1 spans %d pages, want >= 6", pages)
	}
	push(0, 60) // node 0's tail crosses a boundary mid-page
	pop(1, 150)
	for round := 0; round < 50; round++ {
		push(0, 7)
		push(1, 3)
		pop(0, 5)
		pop(1, 4)
	}
	if err := m.s.check(math.MaxInt64, 1<<26); err != nil {
		t.Fatal(err)
	}

	// Drain node 0 to empty: it keeps one page and refills it in order.
	pop(0, m.s.len(0))
	q := m.s.q[0]
	if q.head == 0 || q.head != q.tail || q.lo != 0 || q.hi != 0 || q.prev != q.last {
		t.Fatalf("drained queue %+v, want one page rewound to offset 0", q)
	}
	push(0, 200)
	if err := m.s.check(math.MaxInt64, 1<<26); err != nil {
		t.Fatal(err)
	}
	pop(0, m.s.len(0))
	pop(1, m.s.len(1))
}

// TestSourceQueuesShareFreePages checks that a page one node drains is
// the page the next node to cross a boundary takes, that a constant
// backlog takes no new page however long it runs, and that a backlog
// moving between nodes costs its peak total, not each node's peak.
func TestSourceQueuesShareFreePages(t *testing.T) {
	// Every entry here is a 2-byte gap and a 1-byte destination.
	const perPage = (pageBytes-entryMax)/3 + 1
	m := newQueueModel(4, sourceQueues{})
	s := &m.s
	push := func(n, k int) {
		for i := 0; i < k; i++ {
			m.push(n, 300, 1)
		}
	}
	pop := func(n, k int) { t.Helper(); m.popN(t, n, k) }

	push(0, 3*perPage)
	if pages := s.chainPages(0); pages != 3 {
		t.Fatalf("%d entries of 3 B span %d pages, want 3", 3*perPage, pages)
	}
	pages := s.used
	pop(0, perPage)
	freed := s.free
	if freed == 0 {
		t.Fatal("draining a full head page freed nothing")
	}
	push(2, 1) // node 2's first page is node 0's drained one
	if s.q[2].head != freed || s.used != pages {
		t.Fatalf("node 2 took page %d (%d pages used), want freed page %d (%d used)",
			s.q[2].head, s.used, freed, pages)
	}
	pop(2, 1)

	// Constant backlog: after one lap through its pages, a queue that
	// pushes one entry per pop only ever reuses freed pages.
	for i := 0; i < 2*perPage; i++ {
		push(0, 1)
		pop(0, 1)
	}
	pages = s.used
	for i := 0; i < 100*perPage; i++ {
		push(0, 1)
		pop(0, 1)
	}
	if s.used != pages {
		t.Fatalf("constant backlog of %d grew the pages used %d -> %d", s.len(0), pages, s.used)
	}

	// A backlog of ten pages moving round the four nodes: per-node
	// peaks would sum to forty pages; shared pages stay near ten.
	for n := 0; n < 4; n++ {
		pop(n, s.len(n))
	}
	push(0, 10*perPage)
	for round := 0; round < 40; round++ {
		from, to := round%4, (round+1)%4
		for s.len(from) > 0 {
			pop(from, 1)
			push(to, 1)
		}
	}
	if limit := int32(10 + 2*4); s.used > limit {
		t.Fatalf("a 10-page backlog moving between 4 nodes built %d pages, want <= %d", s.used, limit)
	}
	if err := s.check(math.MaxInt64, 1<<26); err != nil {
		t.Fatal(err)
	}
}

// queueOp is one step of FuzzSourceQueues: count pushes to node, each
// gap cycles after the node's newest entry, or count pops.
type queueOp struct {
	node, count int
	pop         bool
	gap         int64
	dst         topology.NodeID
}

// queueOps decodes fuzz input, four bytes an op: the node (byte 0's low
// seven bits mod 3), a pop when byte 0's top bit is set, 1 to 64
// entries (byte 1), a gap of 2^(byte 2 mod 63) cycles and a destination
// of 2^(byte 3 mod 27) - 1. At most 512 ops are read.
func queueOps(data []byte) []queueOp {
	var ops []queueOp
	for ; len(data) >= 4 && len(ops) < 512; data = data[4:] {
		ops = append(ops, queueOp{
			node:  int(data[0]&0x7f) % 3,
			pop:   data[0]&0x80 != 0,
			count: 1 + int(data[1]%64),
			gap:   1 << (data[2] % 63),
			dst:   topology.NodeID(1)<<(data[3]%27) - 1,
		})
	}
	return ops
}

// runQueueOps applies ops to m, skipping pops of an empty queue and
// clamping gaps so creation cycles stay below math.MaxInt64, then
// checks the queues' structure.
func runQueueOps(m *queueModel, ops []queueOp) error {
	for _, op := range ops {
		for i := 0; i < op.count; i++ {
			if op.pop {
				if len(m.want[op.node]) == 0 {
					break
				}
				if err := m.pop(op.node); err != nil {
					return err
				}
				continue
			}
			gap := min(op.gap, math.MaxInt64-1-m.last[op.node])
			if gap == 0 {
				break
			}
			m.push(op.node, gap, op.dst)
		}
	}
	return m.s.check(math.MaxInt64, 1<<26)
}

// FuzzSourceQueues runs interleaved pushes and pops on three nodes
// against a slice FIFO per node, with gaps up to 2^62 cycles and
// destinations up to 2^26 - 1, then replays the same ops on queues
// rebuilt in the first run's storage, whose pages still hold its bytes:
// the replay must match the model too and end in the same state.
func FuzzSourceQueues(f *testing.F) {
	f.Add([]byte{0, 63, 0, 0, 0x80, 10, 0, 0})
	f.Add([]byte{
		0, 0, 62, 26, 1, 63, 7, 8, 2, 20, 14, 3, // a 13-byte entry on node 0, mixed ones on 1 and 2
		0x80, 63, 0, 0, 0, 63, 1, 1, 0x81, 40, 0, 0, 2, 63, 21, 14,
		0x82, 63, 0, 0, 0x80, 63, 0, 0, 0x80, 63, 0, 0, 0, 5, 62, 26,
	})
	seq := make([]byte, 0, 4*48)
	for i := 0; i < 48; i++ { // pages cross and drain on all three nodes
		seq = append(seq, byte(i%3)|byte(i%4/3)<<7, byte(17+i), byte(3*i), byte(i))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := queueOps(data)
		first := newQueueModel(3, sourceQueues{})
		if err := runQueueOps(first, ops); err != nil {
			t.Fatal(err)
		}
		used, q := first.s.used, append([]nodeQueue(nil), first.s.q...)
		replay := newQueueModel(3, first.s)
		if err := runQueueOps(replay, ops); err != nil {
			t.Fatalf("replay in reused storage: %v", err)
		}
		if replay.s.used != used {
			t.Fatalf("replay used %d pages, first run %d", replay.s.used, used)
		}
		for n := range q {
			if replay.s.q[n] != q[n] {
				t.Fatalf("replay left node %d at %+v, first run %+v", n, replay.s.q[n], q[n])
			}
		}
	})
}

// backloggedEngine returns a 16-node engine stepped cycles cycles far
// past saturation, so its source queues backlog across many pages.
func backloggedEngine(t *testing.T, cycles int) *Engine {
	t.Helper()
	cfg := NewConfig()
	cfg.K, cfg.N = 4, 2
	cfg.VCs, cfg.BufDepth = 2, 2
	cfg.PacketLength = 16
	cfg.Rate = 0.5
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40
	cfg.Scheme = Scheme{Kind: Base}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		e.Step()
	}
	return e
}

// deepestQueue returns the node with the longest source queue.
func deepestQueue(e *Engine) int {
	deepest := 0
	for n := range e.queues.q {
		if e.queues.len(n) > e.queues.len(deepest) {
			deepest = n
		}
	}
	return deepest
}

// TestCheckInvariantsCatchesBrokenQueueLink points the link out of one
// node's head page at another node's head page: the check must report
// the page shared by two chains.
func TestCheckInvariantsCatchesBrokenQueueLink(t *testing.T) {
	e := backloggedEngine(t, 2000)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n := deepestQueue(e)
	if e.queues.chainPages(n) < 2 {
		t.Fatalf("node %d spans %d pages, want >= 2", n, e.queues.chainPages(n))
	}
	e.queues.pageAt(e.queues.q[n].head).next = e.queues.q[(n+1)%len(e.queues.q)].head
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a queue page linked into another node's chain")
	} else {
		t.Log(err)
	}
}

// TestCheckInvariantsCatchesCorruptQueueEntry changes one bit of the
// gap of an entry in mid-queue, which keeps the entry's length, so every
// later entry still decodes: the check must see the creation cycles no
// longer sum to the newest push.
func TestCheckInvariantsCatchesCorruptQueueEntry(t *testing.T) {
	e := backloggedEngine(t, 2000)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	n := deepestQueue(e)
	q := e.queues.q[n]
	pg := e.queues.pageAt(q.head)
	off := q.lo
	for i := 0; i < 10; i++ { // skip to the eleventh entry
		_, _, size := pg.entry(off, 0)
		off += uint8(size)
	}
	if pg.b[off] >= 0x80 {
		t.Fatalf("entry gap byte %#x is not a 1-byte uvarint", pg.b[off])
	}
	pg.b[off] ^= 0x40
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a corrupt queue entry")
	} else {
		t.Log(err)
	}
}

// TestBacklogBytesPerEntry gates what a queued packet costs: the slabs
// a saturated paper-network run holds after 8000 cycles, divided by the
// entries queued in them. Uvarint entries measure 3.69 B here, where
// each node's partly filled head and tail pages still weigh (2.68 B
// after 600k cycles); fixed 12-byte entries (an int64 creation cycle
// and an int32 destination) measured 13.09.
func TestBacklogBytesPerEntry(t *testing.T) {
	cfg := NewConfig()
	cfg.Rate = 0.06
	cfg.Scheme = Scheme{Kind: SelfTuned}
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		e.Step()
	}
	entries := 0
	for n := range e.queues.q {
		entries += e.queues.len(n)
	}
	slabBytes := len(e.queues.slabs) * int(unsafe.Sizeof([slabPages]page{}))
	perEntry := float64(slabBytes) / float64(entries)
	t.Logf("%d entries queued in %d slabs: %.2f B per entry", entries, len(e.queues.slabs), perEntry)
	if entries < 50_000 {
		t.Fatalf("%d entries queued, want >= 50000 (load too low to measure a backlog)", entries)
	}
	if perEntry > 4 {
		t.Errorf("a queued packet costs %.2f B, want <= 4", perEntry)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLongBacklogDrainsFIFO backlogs the source queues across many
// pages and then drains them through the engine's injection path,
// asserting packets are created in generation order.
func TestLongBacklogDrainsFIFO(t *testing.T) {
	e := backloggedEngine(t, 4000)
	nodes := len(e.queues.q)
	if backlog := e.queues.len(deepestQueue(e)); backlog < 500 {
		t.Fatalf("deepest backlog %d, want >= 500 (load too low to span many pages)", backlog)
	}

	// Per-queue FIFO: CheckInvariants decodes every queue, whose entries
	// must sit in strictly increasing generation order across every page
	// boundary.
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
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
