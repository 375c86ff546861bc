package sim

import "repro/internal/topology"

// pageLen is the number of entries in one source-queue page: 21
// entries of 12 bytes plus the 4-byte link fill 256 B exactly.
const pageLen = 21

// slabPages is how many pages one allocation holds: 32 pages are 8 KB,
// an allocator size class. Allocating pages singly would give the
// collector one object per 21 queued packets to mark, and the table
// indexing them would grow by copying in large steps; larger slabs
// would make a saturated engine's allocation lumpier per cycle.
const slabPages = 32

// page is a fixed-size block of one node's source queue, stored as a
// struct of arrays. It holds no pointers, so the garbage collector
// never scans a backlog, however deep.
type page struct {
	created [pageLen]int64
	dst     [pageLen]int32 // topology.New keeps node IDs below 2^26
	next    int32          // id of the following page (in a queue or on the free list)
}

// nodeQueue is one node's FIFO of generated-but-not-injected packets:
// a chain of pages read at head[lo] and written at tail[hi]. Page ids
// count from 1, so the zero value is an empty queue that has never
// held a page.
type nodeQueue struct {
	head, tail int32 // page ids
	lo, hi     int32 // next read slot in head, next write slot in tail
	n          int   // entries queued
}

// sourceQueues holds every node's source queue. All pages come from
// one per-engine set of slabs and one free list, so a page a node
// drains serves any other node: memory follows the peak total backlog,
// not the sum of each node's peak. Entries stay 12 B (a Packet is
// materialized only at injection) because past saturation the
// open-loop backlog grows with run length.
type sourceQueues struct {
	q     []nodeQueue
	slabs []*[slabPages]page // page id i is slot (i-1)%slabPages of slab (i-1)/slabPages
	used  int32              // pages ever handed out; ids 1..used exist
	free  int32              // id of the first free page, 0 when none
}

// newSourceQueues returns empty queues for nodes nodes in old's
// storage: its queue table when large enough, and every slab it
// allocated, whose pages go back into service from id 1. A page's slots
// and link are written before they are read, so old pages need no
// clearing.
func newSourceQueues(nodes int, old sourceQueues) sourceQueues {
	return sourceQueues{q: reuse(old.q, nodes), slabs: old.slabs}
}

// reuse returns s resliced to n elements when its capacity holds n, and
// a fresh slice otherwise. The whole backing array is zeroed.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:cap(s)]
	clear(s)
	return s[:n]
}

// pageAt returns the page with the given id.
//
//stcc:hotpath
func (s *sourceQueues) pageAt(id int32) *page {
	i := uint32(id - 1)
	return &s.slabs[i/slabPages][i%slabPages]
}

// take returns a page off the free list, or the next never-used page,
// allocating a slab only when every page so far is in use.
//
//stcc:hotpath
func (s *sourceQueues) take() int32 {
	if id := s.free; id != 0 {
		s.free = s.pageAt(id).next
		return id
	}
	if int(s.used) == len(s.slabs)*slabPages {
		//stcc:hotalloc a new slab only when the total backlog reaches a new peak
		s.slabs = append(s.slabs, new([slabPages]page))
	}
	s.used++
	return s.used
}

//stcc:hotpath
func (s *sourceQueues) len(n int) int { return s.q[n].n }

// push appends an entry to node n's queue, taking a page only when the
// tail page is full (or the queue has never had one).
//
//stcc:hotpath
func (s *sourceQueues) push(n int, created int64, dst topology.NodeID) {
	q := &s.q[n]
	switch {
	case q.tail == 0:
		q.head = s.take()
		q.tail = q.head
	case q.hi == pageLen:
		id := s.take()
		s.pageAt(q.tail).next = id
		q.tail, q.hi = id, 0
	}
	pg := s.pageAt(q.tail)
	pg.created[q.hi] = created
	pg.dst[q.hi] = int32(dst)
	q.hi++
	q.n++
}

// front returns node n's oldest entry; the queue must be non-empty.
//
//stcc:hotpath
func (s *sourceQueues) front(n int) (created int64, dst topology.NodeID) {
	q := &s.q[n]
	pg := s.pageAt(q.head)
	return pg.created[q.lo], topology.NodeID(pg.dst[q.lo])
}

// pop removes node n's oldest entry. A drained head page goes back to
// the free list; an emptied queue keeps its last page and refills it
// from the first slot.
//
//stcc:hotpath
func (s *sourceQueues) pop(n int) {
	q := &s.q[n]
	q.n--
	if q.n == 0 {
		q.lo, q.hi = 0, 0
		return
	}
	q.lo++
	if q.lo == pageLen {
		pg := s.pageAt(q.head)
		next := pg.next
		pg.next = s.free
		s.free = q.head
		q.head, q.lo = next, 0
	}
}
