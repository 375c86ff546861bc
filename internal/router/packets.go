package router

import "repro/internal/packet"

// The packet table: every packet in the network, each at a slot. A flit
// names its packet by slot, so the flit and buffer arenas hold no
// pointers and the collector never scans them. A packet takes a slot
// when it starts injection and gives it back at delivery, through the
// delivery channel or the recovery drain; slot 0 is never handed out,
// so a zero flit means "no flit".
//
// The per-flit path never reads the table: a latched or crossbar-bound
// flit always belongs to the packet that owns its output VC, which the
// link and crossbar stages load anyway (outVC.ownerPkt). Only per-header
// work looks a slot up: arbitration, deadlock detection, recovery start
// and DECbit marking, and the first two skip a frozen header without
// one (Fabric.frozenMask).
//
// Slots live in fixed-size chunks that are allocated one at a time and
// never copied, so no slot moves when the table grows; the free slots
// form a LIFO list linked through the chunks. A chunk holds 4,096 slots
// (48 KB), three times the paper network's saturated in-flight peak, so
// a run on it allocates one chunk, at its first injection. A chunk is
// past the allocator's 32 KB small-object limit, so the runtime counts
// its bytes when it is made; smaller chunks share a size class's spans,
// whose bytes are counted only when the span is flushed, long after.

const (
	slotChunkBits = 12
	slotChunkSize = 1 << slotChunkBits // slots per chunk
	slotChunkMask = slotChunkSize - 1
)

// slotChunk is slotChunkSize consecutive slots: their packets (nil when
// free) and, for a free slot, the next slot on the free list (0 ends it).
type slotChunk struct {
	pkts [slotChunkSize]*packet.Packet
	next [slotChunkSize]int32
}

// packetTable maps slots to packets. Its chunks[:used] hold the slots
// handed out so far; chunks past used are a donor fabric's, cleared and
// waiting to be threaded before any new chunk is allocated.
type packetTable struct {
	chunks []*slotChunk
	used   int   // chunks whose slots have been threaded onto the free list
	free   int32 // first free slot, 0 when every threaded slot is live
	live   int   // slots holding a packet: the packets in the network
}

// reset empties the table and keeps old's chunks, cleared so that no
// packet of the fabric they came from stays reachable.
func (t *packetTable) reset(old packetTable) {
	for _, c := range old.chunks[:old.used] {
		clear(c.pkts[:])
	}
	*t = packetTable{chunks: old.chunks}
}

// get returns the packet at slot s.
//
//stcc:hotpath
func (t *packetTable) get(s int32) *packet.Packet {
	return t.chunks[s>>slotChunkBits].pkts[s&slotChunkMask]
}

// take puts p at a free slot and returns the slot.
//
//stcc:hotpath
func (t *packetTable) take(p *packet.Packet) int32 {
	if t.free == 0 {
		t.grow()
	}
	s := t.free
	c := t.chunks[s>>slotChunkBits]
	t.free = c.next[s&slotChunkMask]
	c.pkts[s&slotChunkMask] = p
	t.live++
	return s
}

// release empties slot s and returns it to the free list.
//
//stcc:hotpath
func (t *packetTable) release(s int32) {
	c := t.chunks[s>>slotChunkBits]
	c.pkts[s&slotChunkMask] = nil
	c.next[s&slotChunkMask] = t.free
	t.free = s
	t.live--
}

// grow threads the next chunk's slots onto the empty free list, lowest
// first, allocating the chunk only when no donor chunk is left. The
// chunk's first slot index must fit an int32; Config.Validate bounds
// the packets in flight so that it does.
//
//stcc:hotpath
func (t *packetTable) grow() {
	if t.used == len(t.chunks) {
		//stcc:hotalloc a new chunk only when the packets in flight reach a new peak
		t.chunks = append(t.chunks, new(slotChunk))
	}
	c := t.chunks[t.used]
	base := int32(t.used << slotChunkBits)
	t.used++
	for i := slotChunkSize - 1; i >= 0; i-- {
		if s := base + int32(i); s != 0 { // slot 0 means "no flit"
			c.next[i] = t.free
			t.free = s
		}
	}
}

// each calls fn for every packet in the table, once, in slot order.
func (t *packetTable) each(fn func(*packet.Packet)) {
	for _, c := range t.chunks[:t.used] {
		for _, p := range c.pkts {
			if p != nil {
				fn(p)
			}
		}
	}
}
