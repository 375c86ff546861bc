package sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/topology"
)

// pageBytes is the entry space of one source-queue page: with the
// 4-byte link it fills 256 B exactly.
const pageBytes = 252

// entryMax is the longest encoded entry: a creation-cycle gap, which is
// a non-negative int64 and so takes at most 9 uvarint bytes, and a
// destination below 2^26 (topology.New's node bound), at most 4. No
// entry straddles a page: a writer takes a new page when fewer than
// entryMax bytes remain, and a reader leaves its head page under the
// same test at the same offset. The bound is a constant, not one
// derived from a run's length, because Engine.Step does not stop at
// TotalCycles.
const entryMax = 9 + 4

// slabPages is how many pages one allocation holds: 32 pages are 8 KB,
// an allocator size class. Allocating pages singly would give the
// collector one object per about 95 queued packets to mark, and the
// table indexing them would grow by copying in large steps; larger
// slabs would make a saturated engine's allocation lumpier per cycle.
const slabPages = 32

// page is a fixed-size block of one node's source queue: a run of
// entries, each two uvarints, the creation cycle as the gap from the
// node's previous entry and then the destination. It holds no pointers,
// so the garbage collector never scans a backlog, however deep.
type page struct {
	b    [pageBytes]byte
	next int32 // id of the following page (in a queue or on the free list)
}

// nodeQueue is one node's FIFO of generated-but-not-injected packets:
// a chain of pages read at head.b[lo] and written at tail.b[hi]. Page
// ids count from 1, so the zero value is an empty queue that has never
// held a page. A node gains at most one entry a cycle, so n wraps only
// after 2^32 cycles of unbroken backlog, when the node's queue alone
// would hold over 11 GB.
type nodeQueue struct {
	last, prev int64  // creation cycles of the newest entry pushed and the newest popped
	head, tail int32  // page ids
	n          uint32 // entries queued
	lo, hi     uint8  // next read offset in head, next write offset in tail
}

// sourceQueues holds every node's source queue. All pages come from
// one per-engine set of slabs and one free list, so a page a node
// drains serves any other node: memory follows the peak total backlog,
// not the sum of each node's peak. Entries are a few bytes (about 2.7 B
// in a saturated paper-network run, links and page ends included), and
// a Packet is materialized only at injection, because past saturation
// the open-loop backlog grows with run length.
type sourceQueues struct {
	q     []nodeQueue
	slabs []*[slabPages]page // page id i is slot (i-1)%slabPages of slab (i-1)/slabPages
	used  int32              // pages ever handed out; ids 1..used exist
	free  int32              // id of the first free page, 0 when none
}

// newSourceQueues returns empty queues for nodes nodes in old's
// storage: its queue table when large enough, and every slab it
// allocated, whose pages go back into service from id 1. A page's bytes
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
func (s *sourceQueues) len(n int) int { return int(s.q[n].n) }

// push appends an entry to node n's queue, taking a page only when
// fewer than entryMax bytes remain in the tail page (or the queue has
// never had one). created must not precede the node's previous entry,
// and dst is below 2^26.
//
//stcc:hotpath
func (s *sourceQueues) push(n int, created int64, dst topology.NodeID) {
	q := &s.q[n]
	switch {
	case q.tail == 0:
		q.head = s.take()
		q.tail = q.head
	case pageBytes-int(q.hi) < entryMax:
		id := s.take()
		s.pageAt(q.tail).next = id
		q.tail, q.hi = id, 0
	}
	b := s.pageAt(q.tail).b[q.hi:]
	k := binary.PutUvarint(b, uint64(created-q.last))
	k += binary.PutUvarint(b[k:], uint64(dst))
	q.hi += uint8(k)
	q.last = created
	q.n++
}

// entry decodes the entry at offset off, whose predecessor in the queue
// was created at prev: its creation cycle, its destination and its
// length in bytes. A length of zero marks bytes that do not decode.
//
//stcc:hotpath
func (pg *page) entry(off uint8, prev int64) (created int64, dst topology.NodeID, size int) {
	gap, k := binary.Uvarint(pg.b[off:])
	if k <= 0 {
		return 0, 0, 0
	}
	d, m := binary.Uvarint(pg.b[int(off)+k:])
	if m <= 0 {
		return 0, 0, 0
	}
	return prev + int64(gap), topology.NodeID(d), k + m
}

// front returns node n's oldest entry; the queue must be non-empty.
//
//stcc:hotpath
func (s *sourceQueues) front(n int) (created int64, dst topology.NodeID) {
	q := &s.q[n]
	created, dst, _ = s.pageAt(q.head).entry(q.lo, q.prev)
	return created, dst
}

// pop removes node n's oldest entry. A head page the reader leaves goes
// back to the free list; an emptied queue keeps its last page and
// refills it from offset 0.
//
//stcc:hotpath
func (s *sourceQueues) pop(n int) {
	q := &s.q[n]
	pg := s.pageAt(q.head)
	created, _, size := pg.entry(q.lo, q.prev)
	q.prev = created
	q.n--
	if q.n == 0 {
		q.lo, q.hi = 0, 0
		return
	}
	q.lo += uint8(size)
	if pageBytes-int(q.lo) < entryMax {
		next := pg.next
		pg.next = s.free
		s.free = q.head
		q.head, q.lo = next, 0
	}
}

// check verifies the queues' structure: each node's chain decodes to
// exactly its count of entries, created in strictly increasing cycles
// before now and ending at the newest push, with destinations below
// nodes, and every page from 1 to used is in exactly one node's chain
// or on the free list. O(pages + entries); for tests and debugging.
func (s *sourceQueues) check(now int64, nodes int) error {
	if int(s.used) > len(s.slabs)*slabPages {
		return fmt.Errorf("source queues: %d pages in use, %d allocated", s.used, len(s.slabs)*slabPages)
	}
	seen := make([]bool, s.used+1)
	claim := func(id int32) error {
		if id < 1 || id > s.used {
			return fmt.Errorf("source queues: page id %d outside 1..%d", id, s.used)
		}
		if seen[id] {
			return fmt.Errorf("source queues: page %d is in two chains", id)
		}
		seen[id] = true
		return nil
	}
	for id := s.free; id != 0; id = s.pageAt(id).next {
		if err := claim(id); err != nil {
			return fmt.Errorf("%w (free list)", err)
		}
	}
	for n := range s.q {
		if err := s.checkNode(n, now, nodes, claim); err != nil {
			return err
		}
	}
	for id := int32(1); id <= s.used; id++ {
		if !seen[id] {
			return fmt.Errorf("source queues: page %d is in no chain and not on the free list", id)
		}
	}
	return nil
}

// checkNode walks node n's chain for check, claiming each of its pages.
func (s *sourceQueues) checkNode(n int, now int64, nodes int, claim func(id int32) error) error {
	q := s.q[n]
	if q.head == 0 || q.tail == 0 {
		if q.head != q.tail || q.n != 0 || q.lo != 0 || q.hi != 0 || q.last != 0 || q.prev != 0 {
			return fmt.Errorf("source queue %d: no page but state %+v", n, q)
		}
		return nil
	}
	id, off, created := q.head, q.lo, q.prev
	if err := claim(id); err != nil {
		return fmt.Errorf("%w (node %d's queue)", err, n)
	}
	for i := uint32(0); i < q.n; i++ {
		if pageBytes-int(off) < entryMax {
			if id == q.tail {
				return fmt.Errorf("source queue %d: chain ends after %d of %d entries", n, i, q.n)
			}
			id, off = s.pageAt(id).next, 0
			if err := claim(id); err != nil {
				return fmt.Errorf("%w (node %d's queue)", err, n)
			}
		}
		c, dst, size := s.pageAt(id).entry(off, created)
		// Only a queue's first entry ever may share the initial prev,
		// cycle 0.
		strict := i > 0 || q.prev != 0
		switch {
		case size == 0:
			return fmt.Errorf("source queue %d: entry %d at page %d offset %d does not decode", n, i, id, off)
		case c < created || strict && c == created:
			return fmt.Errorf("source queue %d: entry %d created %d after %d", n, i, c, created)
		case c >= now:
			return fmt.Errorf("source queue %d: entry %d created %d, not before cycle %d", n, i, c, now)
		case int(dst) >= nodes:
			return fmt.Errorf("source queue %d: entry %d destination %d outside %d nodes", n, i, dst, nodes)
		}
		created, off = c, off+uint8(size)
	}
	if id != q.tail || off != q.hi || created != q.last {
		return fmt.Errorf("source queue %d: %d entries end at page %d offset %d created %d, want page %d offset %d created %d",
			n, q.n, id, off, created, q.tail, q.hi, q.last)
	}
	return nil
}
