package router

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/enum"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

// DeadlockMode selects how the network handles deadlocks.
type DeadlockMode uint8

const (
	// Avoidance reserves virtual channel 0 of every physical channel as
	// a deadlock-free escape lane routed dimension-order over the mesh
	// sub-network (Duato's protocol); the remaining channels are fully
	// adaptive.
	Avoidance DeadlockMode = iota
	// Recovery lets every virtual channel route fully adaptively,
	// detects deadlock by timeout, and drains one suspected packet at a
	// time through a dedicated deadlock-buffer lane (Disha progressive
	// recovery with a global token).
	Recovery
)

// Each wire enum's names live in one table; String, the text codec that
// carries the enum in sim.Config's JSON form, and Config.Validate's
// range check all read it.
var deadlockModes = enum.New[DeadlockMode]("router", "deadlock mode", "avoidance", "recovery")

func (m DeadlockMode) String() string                { return deadlockModes.String(m) }
func (m DeadlockMode) MarshalText() ([]byte, error)  { return deadlockModes.MarshalText(m) }
func (m *DeadlockMode) UnmarshalText(b []byte) error { return deadlockModes.UnmarshalText(m, b) }

// SelectionPolicy chooses among the minimal output ports a fully
// adaptive header may take.
type SelectionPolicy uint8

const (
	// RotatePorts starts the port scan at a rotating offset (the
	// default; spreads load evenly without global knowledge).
	RotatePorts SelectionPolicy = iota
	// FirstPort always scans ports in dimension order (biases load
	// toward low dimensions; the cheapest hardware).
	FirstPort
	// MostFreeVCs picks the minimal port with the most free output
	// virtual channels, breaking ties in dimension order (a congestion-
	// aware selection function).
	MostFreeVCs
)

var selectionPolicies = enum.New[SelectionPolicy]("router", "selection policy", "rotate", "first", "mostfree")

func (p SelectionPolicy) String() string                { return selectionPolicies.String(p) }
func (p SelectionPolicy) MarshalText() ([]byte, error)  { return selectionPolicies.MarshalText(p) }
func (p *SelectionPolicy) UnmarshalText(b []byte) error { return selectionPolicies.UnmarshalText(p, b) }

// Switching selects the flow control discipline.
type Switching uint8

const (
	// Wormhole forwards flits as soon as the header reserves a channel;
	// a blocked worm spans several routers (the paper's evaluation
	// setting, prone to tree saturation).
	Wormhole Switching = iota
	// CutThrough (virtual cut-through) also forwards immediately, but a
	// header only acquires an output VC if the downstream buffer can
	// hold the whole packet, so blocked packets collapse into a single
	// router. Requires BufDepth >= the longest packet. The paper argues
	// its scheme applies to cut-through networks too; this mode lets
	// that claim be tested.
	CutThrough
)

var switchings = enum.New[Switching]("router", "switching discipline", "wormhole", "cutthrough")

func (s Switching) String() string                { return switchings.String(s) }
func (s Switching) MarshalText() ([]byte, error)  { return switchings.MarshalText(s) }
func (s *Switching) UnmarshalText(b []byte) error { return switchings.UnmarshalText(s, b) }

// DispatchPolicy is a wire-compatibility field: a fabric always steps
// serially, but configurations may still name a policy. The value is
// accepted and ignored; an unknown name is still rejected.
type DispatchPolicy uint8

// The accepted dispatch policies. None changes how a fabric steps.
const (
	DispatchAdaptive DispatchPolicy = iota
	DispatchSharded
	DispatchSerial
)

var dispatchPolicies = enum.New[DispatchPolicy]("router", "dispatch policy", "adaptive", "sharded", "serial")

func (d DispatchPolicy) String() string                { return dispatchPolicies.String(d) }
func (d DispatchPolicy) MarshalText() ([]byte, error)  { return dispatchPolicies.MarshalText(d) }
func (d *DispatchPolicy) UnmarshalText(b []byte) error { return dispatchPolicies.UnmarshalText(d, b) }

// Config describes the router fabric. The paper's configuration is a
// 16-ary 2-cube with 3 VCs of depth 8 and 16-flit packets.
type Config struct {
	Topo     *topology.Torus
	VCs      int // virtual channels per physical channel
	BufDepth int // flits per virtual-channel edge buffer
	Mode     DeadlockMode
	// DeadlockTimeout is the cycles a packet may go without progress
	// before recovery considers it deadlocked (Recovery mode only).
	DeadlockTimeout int64
	// TokenWaitTimeout is how long a suspected packet stays frozen
	// waiting for the recovery token before it re-arms: it resumes
	// normal routing and its deadlock timer restarts. This mirrors
	// Disha's behavior (a presumed-deadlocked packet that regains
	// mobility continues normally) and bounds how long a congested-but-
	// not-deadlocked worm clogs the network. Zero selects 2.4x the
	// deadlock timeout (384 cycles for the calibrated default timeout),
	// the value at which the simulator reproduces the paper's
	// saturation collapse while keeping it reversible under throttling.
	TokenWaitTimeout int64
	// DeliveryChannels is the number of consumption channels per node
	// (Basak & Panda showed consumption channels can bottleneck and
	// exacerbate tree saturation). Zero means 1, the paper's setting.
	DeliveryChannels int
	// Selection picks among minimal ports for adaptive headers.
	Selection SelectionPolicy
	// Switching selects wormhole (default) or virtual cut-through flow
	// control.
	Switching Switching
	// Workers and Dispatch are accepted and ignored: the fabric always
	// steps serially, and parallelism comes from running independent
	// simulations side by side. A negative worker count or an unknown
	// policy is still an error.
	Workers  int
	Dispatch DispatchPolicy
	// CongestMark enables DECbit-style congestion marking when positive:
	// a router raises its congestion bit while the buffered-flit
	// occupancy across its physical-channel VC buffers is at least
	// CongestMark of their total capacity, and lowers it again only at
	// half the mark (hysteresis, so the bit does not chatter at the
	// threshold). While the bit is up, every packet whose header the
	// router accepts is marked, and the mark travels with the packet to
	// its destination (the feedback the aimd scheme consumes); rising
	// bit edges also feed the side-band notification path (notify).
	// Zero (the default) disables marking entirely: no occupancy
	// tracking, no marks, byte-identical to builds without the feature.
	CongestMark float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("router: topology is required")
	}
	if err := errors.Join(deadlockModes.Check(c.Mode), selectionPolicies.Check(c.Selection),
		switchings.Check(c.Switching), dispatchPolicies.Check(c.Dispatch)); err != nil {
		return err
	}
	if c.VCs < 1 {
		return fmt.Errorf("router: need at least 1 virtual channel, got %d", c.VCs)
	}
	if c.Mode == Avoidance && c.VCs < 2 {
		return fmt.Errorf("router: deadlock avoidance needs >= 2 VCs (1 escape + adaptive), got %d", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("router: buffer depth must be >= 1, got %d", c.BufDepth)
	}
	if c.Mode == Recovery && c.DeadlockTimeout < 1 {
		return fmt.Errorf("router: recovery mode needs a positive deadlock timeout, got %d", c.DeadlockTimeout)
	}
	if c.TokenWaitTimeout < 0 {
		return fmt.Errorf("router: negative token wait timeout %d", c.TokenWaitTimeout)
	}
	if c.DeliveryChannels < 0 {
		return fmt.Errorf("router: negative delivery channel count %d", c.DeliveryChannels)
	}
	if c.Workers < 0 {
		return fmt.Errorf("router: negative worker count %d", c.Workers)
	}
	if c.CongestMark < 0 || c.CongestMark > 1 {
		return fmt.Errorf("router: congestion mark %g out of [0,1]", c.CongestMark)
	}
	dlv := c.DeliveryChannels
	if dlv == 0 {
		dlv = 1
	}
	// The per-node lane masks are single machine words: every input and
	// output lane of a router must fit in 64 bits. Input lanes are
	// 2n*VCs+1, output lanes 2n*VCs+DeliveryChannels; the paper's
	// configurations (n <= 3, VCs <= 4) sit far below the bound.
	if in := c.Topo.PhysPorts()*c.VCs + 1; in > 64 {
		return fmt.Errorf("router: %d input lanes per node exceed the 64-lane mask width", in)
	}
	if out := c.Topo.PhysPorts()*c.VCs + dlv; out > 64 {
		return fmt.Errorf("router: %d output lanes per node exceed the 64-lane mask width", out)
	}
	// Buffers address their flit rings by int32 offset into one arena.
	if lanes := c.Topo.Nodes() * (c.Topo.PhysPorts()*c.VCs + 1); c.BufDepth > math.MaxInt32/lanes {
		return fmt.Errorf("router: %d input lanes of %d flits exceed the flit arena's int32 offsets", lanes, c.BufDepth)
	}
	return nil
}

// node is one router's scalar state: the arbitration pointers and the
// source slot. Its input VC buffers and output VCs live in the fabric's
// node-major arenas and are addressed by index (bufs, outputVC), so
// one router's working set is contiguous in memory instead of a pointer
// forest; hot-path code takes &f.nodes[i] and never copies a node. The
// active-set occupancy state lives in the Fabric's structure-of-arrays
// lane masks, not here, so the stages touch only the hot arrays.
type node struct {
	id topology.NodeID

	// Demand-slotted round-robin pointer of the central routing arbiter
	// (flattened over input VCs).
	arbPtr int
	// Rotating start offset for adaptive output-port selection.
	adaptPtr int

	// Injection state: the packet currently streaming into the
	// injection channel.
	src srcSlot
}

// Fabric is the whole network of routers plus global bookkeeping. It is
// advanced one cycle at a time by Step; packet generation, throttling and
// statistics live in the sim package on top.
//
// The hot per-lane state is structure-of-arrays: the flit rings and
// buffer structs sit in node-major arenas (bufs, outsA), per-lane
// occupancy in one contiguous occ array, per-node lane masks and
// node-level active bitsets beside them. The per-cycle stages iterate
// set bits instead of scanning ports and VCs, and a credit check against
// a neighbor touches one occ element instead of the neighbor's buffer
// struct.
type Fabric struct {
	cfg   Config
	topo  *topology.Torus
	nodes []node
	now   int64

	injPort int // input port index of the injection channel
	dlvPort int // output port index of the delivery channel

	lanesIn  int // input lanes per node: PhysPorts*VCs + 1 (injection)
	lanesOut int // output lanes per node: PhysPorts*VCs + delivery channels

	// Arenas, node-major by lane: bufs[node*lanesIn+lane] and
	// outsA[node*lanesOut+lane]. Lane p*VCs+v is port p's VC v; the
	// injection channel is the last input lane and the delivery
	// channels the last output lanes.
	bufs  []vcBuffer
	outsA []outVC

	// flits holds every input lane's ring of depth slots, at offset
	// vcBuffer.ring.
	flits []flit
	depth int32 // flits per buffer (Config.BufDepth)

	// swPtr holds each output port's round-robin switch-allocation
	// pointer, node-major: swPtr[node*(dlvPort+1)+port].
	swPtr []uint8

	// occ is the occupancy of every input lane in the network, indexed
	// by vcBuffer.gid. It is the single source of truth buffer length
	// reads and credit checks go through.
	occ []int32

	// Per-node lane masks, one word per node, bit = node-local lane.
	occMask   []uint64 // input lanes holding at least one flit
	boundMask []uint64 // input lanes with a wormhole binding
	headMask  []uint64 // input lanes whose front flit is a head flit
	latchMask []uint64 // output lanes whose latch holds a flit
	ownedMask []uint64 // output lanes owned by a packet

	// Node-level active bitsets (bit = node), the stages' outer loops.
	actOccupied activeWords
	actPending  activeWords
	actLatched  activeWords
	actOwned    activeWords
	actSrc      activeWords

	// DECbit congestion marking (enabled when markHi > 0). nodeOcc is
	// each router's buffered-flit count over its countable lanes — a
	// per-node fold of the occ array maintained at the same push/pop
	// sites. congWords is the live congestion bitset (bit = node):
	// raised when nodeOcc crosses markHi, lowered at markLo (half the
	// mark). congStable is its copy from the last cycle
	// boundary; header pushes mark packets against it, so the marking
	// decision never depends on intra-cycle push order. Every write lives
	// in buffer.go under counterguard.
	nodeOcc    []int32
	congWords  []uint64
	congStable []uint64
	markHi     int32 // set threshold in flits; 0 disables marking
	markLo     int32 // clear threshold (markHi / 2)

	// Network-wide active-set sums, maintained at the same buffer.go
	// transition sites: each stage consults its counter to skip the
	// whole sweep in O(1) on an idle fabric.
	net netCounters

	// laneOutPort maps a node-local output lane to its port; outPortBase
	// and outPortWidth give each port's lane range. Precomputed so the
	// crossbar never divides by VCs.
	laneOutPort  []uint8
	outPortBase  []int
	outPortWidth []int

	// dstGid maps every output lane (node*lanesOut+lane) to the global
	// input-lane index (gid) of the downstream buffer it feeds, or -1
	// for delivery lanes. Precomputed so the link and crossbar hot paths
	// read one table element instead of recomputing the torus neighbor
	// (per-dimension divisions) on every flit movement and credit check.
	dstGid []int32

	// Delivery accounting.
	deliveredFlits int64 // all-time, delivery channels and recovery lane
	inFlight       int   // packets injected but not delivered

	// Disha recovery: the active drain, the token wait queue of frozen
	// suspects, and the completion count. recStore is the reused backing
	// store of rec so steady-state recoveries never allocate.
	rec        *recoveryState
	recStore   recoveryState
	suspects   []suspect
	tokenWait  int64
	recoveries int64 // completed recoveries

	// OnDelivered, when set, is called once per delivered packet with
	// the delivery cycle already stamped.
	OnDelivered func(p *packet.Packet)

	// OnEvent, when set, receives packet lifecycle events (injection,
	// routing, delivery, deadlock suspicion/recovery). Nil costs one
	// predictable branch per event site.
	OnEvent func(e trace.Event)

	ports []int // routeAdaptive scratch: the minimal ports of one header
}

// New builds the fabric. The configuration must validate.
//
// All router state is carved out of contiguous arenas (vcBuffers, their
// flit rings, outVCs, the switch pointers, and the SoA occupancy/mask
// arrays), sized when the fabric is built: one fabric costs a fixed
// handful of allocations regardless of size (none when NewReusing finds
// them in its donor), neighboring buffers share cache lines, and Step
// never allocates. Arena addresses are stable for the fabric's
// lifetime, so *vcBuffer and *outVC remain valid identities (wormhole
// bindings and output-VC ownership hold them across cycles).
func New(cfg Config) (*Fabric, error) { return NewReusing(cfg, nil) }

// NewReusing is New built in the arenas of donor, a fabric its caller
// is done with (nil builds fresh). Each arena whose capacity holds the
// new size is resliced and zeroed; the others are allocated fresh. The
// donor is left empty and must not be used again.
func NewReusing(cfg Config, donor *Fabric) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var old Fabric
	if donor != nil {
		old, *donor = *donor, Fabric{}
	}
	f := &Fabric{
		cfg:       cfg,
		topo:      cfg.Topo,
		injPort:   cfg.Topo.PhysPorts(),
		dlvPort:   cfg.Topo.PhysPorts(),
		depth:     int32(cfg.BufDepth),
		tokenWait: cfg.TokenWaitTimeout,
	}
	if f.tokenWait == 0 {
		f.tokenWait = 12 * cfg.DeadlockTimeout / 5
	}
	phys := cfg.Topo.PhysPorts()
	dlv := cfg.DeliveryChannels
	if dlv == 0 {
		dlv = 1
	}
	nodes := cfg.Topo.Nodes()
	f.lanesIn = phys*cfg.VCs + 1    // physical input VCs + injection channel
	f.lanesOut = phys*cfg.VCs + dlv // physical output VCs + delivery channels
	f.bufs = reuse(old.bufs, nodes*f.lanesIn)
	f.flits = reuse(old.flits, nodes*f.lanesIn*cfg.BufDepth)
	f.outsA = reuse(old.outsA, nodes*f.lanesOut)
	f.swPtr = reuse(old.swPtr, nodes*(phys+1))

	if cfg.CongestMark > 0 {
		// Set threshold: the mark fraction of one router's countable
		// buffer capacity, rounded up (never zero, so an enabled mark
		// always needs at least one buffered flit); clear at half.
		capacity := phys * cfg.VCs * cfg.BufDepth
		f.markHi = int32(math.Ceil(cfg.CongestMark * float64(capacity)))
		if f.markHi < 1 {
			f.markHi = 1
		}
		f.markLo = f.markHi / 2
	}
	f.initSoA(nodes, &old)

	f.laneOutPort = reuse(old.laneOutPort, f.lanesOut)
	f.outPortBase = reuse(old.outPortBase, phys+1)
	f.outPortWidth = reuse(old.outPortWidth, phys+1)
	for p := 0; p < phys; p++ {
		f.outPortBase[p] = p * cfg.VCs
		f.outPortWidth[p] = cfg.VCs
		for v := 0; v < cfg.VCs; v++ {
			f.laneOutPort[p*cfg.VCs+v] = uint8(p)
		}
	}
	f.outPortBase[phys] = phys * cfg.VCs
	f.outPortWidth[phys] = dlv
	for v := 0; v < dlv; v++ {
		f.laneOutPort[phys*cfg.VCs+v] = uint8(phys)
	}

	f.dstGid = reuse(old.dstGid, nodes*f.lanesOut)
	for ni := 0; ni < nodes; ni++ {
		base := ni * f.lanesOut
		for p := 0; p < phys; p++ {
			nb := int(cfg.Topo.Neighbor(topology.NodeID(ni), topology.PortDim(p), topology.PortDir(p)))
			op := topology.OppositePort(p)
			for v := 0; v < cfg.VCs; v++ {
				f.dstGid[base+p*cfg.VCs+v] = int32(nb*f.lanesIn + op*cfg.VCs + v)
			}
		}
		for v := 0; v < dlv; v++ {
			f.dstGid[base+phys*cfg.VCs+v] = -1
		}
	}

	f.nodes = reuse(old.nodes, nodes)
	for id := range f.nodes {
		f.nodes[id] = node{id: topology.NodeID(id), src: srcSlot{fab: f, node: topology.NodeID(id)}}
		for lane := 0; lane < f.lanesIn; lane++ {
			gid := id*f.lanesIn + lane
			b := vcBuffer{
				fab: f, node: int32(id), gid: int32(gid), ring: int32(gid * cfg.BufDepth),
				port: uint8(f.injPort), lane: uint8(lane),
			}
			if lane < phys*cfg.VCs {
				b.port, b.vc, b.countable = uint8(lane/cfg.VCs), uint8(lane%cfg.VCs), true
			}
			f.bufs[gid] = b
		}
		for lane := 0; lane < f.lanesOut; lane++ {
			p := int(f.laneOutPort[lane])
			f.outsA[id*f.lanesOut+lane].lat = latch{
				fab: f, node: int32(id), port: uint8(p), vc: uint8(lane - f.outPortBase[p]), lane: uint8(lane),
			}
		}
	}
	return f, nil
}

// reuse returns s resliced to n elements when its capacity holds n, and
// a fresh slice otherwise. The whole backing array is zeroed, so a
// reused arena reads like a new one and keeps no packet of the fabric
// it came from alive.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:cap(s)]
	clear(s)
	return s[:n]
}

// outputVC returns node ni's output VC vc on port; delivery channel v
// is (dlvPort, v).
//
//stcc:hotpath
func (f *Fabric) outputVC(ni, port, vc int) *outVC {
	return &f.outsA[ni*f.lanesOut+port*f.cfg.VCs+vc]
}

// MustNew is New for constant configurations.
func MustNew(cfg Config) *Fabric {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Now returns the current cycle (the cycle the next Step will simulate).
func (f *Fabric) Now() int64 { return f.now }

// FullVCBuffers implements the side-band's congestion source: the number
// of completely full physical-channel VC buffers network-wide.
func (f *Fabric) FullVCBuffers() int { return f.net.fullBuffers }

// Nodes implements congestion.GlobalView: the network size.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// CongestionBits returns the live congestion bitset, one bit per node,
// or nil when marking is disabled. The words are valid between Steps
// and must be treated as read-only; the notify controller edge-scans
// them at each tick (congestion.GlobalView).
//
//stcc:hotpath
func (f *Fabric) CongestionBits() []uint64 { return f.congWords }

// FullVCBuffersAt returns the number of completely full physical-channel
// VC buffers at one node. O(ports x VCs); intended for visualization and
// analysis, not the per-cycle hot path (which uses the incremental
// global counter).
func (f *Fabric) FullVCBuffersAt(nodeID topology.NodeID) int {
	full := 0
	bufs := f.bufs[int(nodeID)*f.lanesIn : int(nodeID+1)*f.lanesIn]
	for i := range bufs {
		if bufs[i].countable && bufs[i].full() {
			full++
		}
	}
	return full
}

// DeliveredFlits implements the side-band's throughput source: the
// all-time delivered flit count.
func (f *Fabric) DeliveredFlits() int64 { return f.deliveredFlits }

// InFlight returns the number of packets injected but not yet delivered.
func (f *Fabric) InFlight() int { return f.inFlight }

// EachPacket calls fn for every packet the fabric holds: streaming in
// from a source, buffered, latched or draining through the recovery
// lane. A packet is passed once per flit held in a buffer or latch, and
// once more for a source slot or the recovery drain.
func (f *Fabric) EachPacket(fn func(*packet.Packet)) {
	for i := range f.nodes {
		if p := f.nodes[i].src.pkt; p != nil {
			fn(p)
		}
	}
	for i := range f.bufs {
		b := &f.bufs[i]
		for j, n := int32(0), f.occ[b.gid]; j < n; j++ {
			fn(b.at(j).pkt)
		}
	}
	for i := range f.outsA {
		if l := &f.outsA[i].lat; l.full {
			fn(l.f.pkt)
		}
	}
	if f.rec != nil {
		fn(f.rec.pkt)
	}
}

// Recoveries returns how many deadlock recoveries have completed.
func (f *Fabric) Recoveries() int64 { return f.recoveries }

// VCsPerPort implements congestion.LocalView.
func (f *Fabric) VCsPerPort() int { return f.cfg.VCs }

// FreeVCs implements congestion.LocalView: output VCs on the port not
// currently owned by any packet.
func (f *Fabric) FreeVCs(nodeID topology.NodeID, port int) int {
	free := 0
	for v := 0; v < f.outPortWidth[port]; v++ {
		if f.outputVC(int(nodeID), port, v).free() {
			free++
		}
	}
	return free
}

// CanStartInjection reports whether node's injection channel is ready for
// a new packet (no other packet is mid-stream).
//
//stcc:hotpath
func (f *Fabric) CanStartInjection(nodeID topology.NodeID) bool {
	return f.nodes[nodeID].src.pkt == nil
}

// StartInjection hands pkt to node's injection channel. The head flit
// enters the channel this cycle (the fabric's injection stage runs inside
// Step); throttling decisions therefore gate packets, never parts of
// worms. Panics if the channel is busy or the packet malformed — callers
// must check CanStartInjection.
//
//stcc:hotpath
func (f *Fabric) StartInjection(pkt *packet.Packet) {
	nd := &f.nodes[pkt.Src]
	if nd.src.pkt != nil {
		panic(fmt.Sprintf("router: injection channel of node %d busy", pkt.Src))
	}
	if pkt.SrcRemaining != pkt.Length {
		panic(fmt.Sprintf("router: packet %d already partially injected", pkt.ID))
	}
	nd.src.setPacket(pkt)
	f.inFlight++
}

// Step advances the network one cycle: deadlock-recovery drain, link
// traversal (including delivery consumption), crossbar traversal, header
// routing, injection streaming, and deadlock detection, in that order.
// The order gives headers the paper's one-cycle routing delay: a header
// routed in cycle t traverses the crossbar no earlier than t+1.
//
//stcc:hotpath
func (f *Fabric) Step() {
	if f.markHi > 0 {
		// Refresh the cycle-stable congestion bits the marking decision
		// reads: packets arriving during cycle t are marked against the
		// bits as of the end of t-1, so the decision never depends on
		// intra-cycle push order.
		f.snapshotCongestion()
	}
	f.recoveryStep()
	f.linkStage()
	f.crossbarStage()
	f.routingStage()
	f.injectionStage()
	if f.cfg.Mode == Recovery {
		f.detectDeadlock()
	}
	f.now++
}

// deliver finalizes a packet: stamps delivery, updates counters, invokes
// the callbacks.
//
//stcc:hotpath
func (f *Fabric) deliver(p *packet.Packet, now int64) {
	p.DeliveredAt = now
	f.inFlight--
	f.emit(trace.Delivered, p, p.Dst)
	if f.OnDelivered != nil {
		f.OnDelivered(p)
	}
}

// emit sends a lifecycle event to the sink, if any.
//
//stcc:hotpath
func (f *Fabric) emit(kind trace.Kind, p *packet.Packet, node topology.NodeID) {
	if f.OnEvent == nil {
		return
	}
	f.OnEvent(trace.Event{
		Cycle: f.now, Kind: kind, Packet: p.ID,
		Src: p.Src, Dst: p.Dst, Node: node,
	})
}

// Close is a no-op: a fabric holds no goroutines or other resources that
// need releasing. It remains so that callers may close every fabric they
// build without knowing how it steps.
func (f *Fabric) Close() {}
