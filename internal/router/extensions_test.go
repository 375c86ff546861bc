package router

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestSelectionPolicyValidation(t *testing.T) {
	c := testConfig(8, Avoidance)
	c.Selection = SelectionPolicy(9)
	if c.Validate() == nil {
		t.Error("bad selection policy validated")
	}
	for _, pol := range []SelectionPolicy{RotatePorts, FirstPort, MostFreeVCs} {
		c.Selection = pol
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

func TestSelectionPolicyStrings(t *testing.T) {
	want := map[SelectionPolicy]string{RotatePorts: "rotate", FirstPort: "first", MostFreeVCs: "mostfree"}
	for pol, s := range want {
		if pol.String() != s {
			t.Errorf("%d.String() = %q", pol, pol.String())
		}
	}
	if SelectionPolicy(7).String() == "" {
		t.Error("unknown policy should format")
	}
}

func TestDeliveryChannelsValidation(t *testing.T) {
	c := testConfig(8, Avoidance)
	c.DeliveryChannels = -1
	if c.Validate() == nil {
		t.Error("negative delivery channels validated")
	}
}

// With one consumption channel, two simultaneous packets to the same
// destination serialize; with two channels they drain concurrently and
// finish sooner.
func TestDeliveryChannelsIncreaseConsumptionBandwidth(t *testing.T) {
	run := func(channels int) int64 {
		cfg := testConfig(8, Avoidance)
		cfg.DeliveryChannels = channels
		f := MustNew(cfg)
		dst := cfg.Topo.ID([]int{2, 0})
		// Two sources equidistant from the destination.
		p1 := packet.New(1, cfg.Topo.ID([]int{0, 0}), dst, 32, 0)
		p2 := packet.New(2, cfg.Topo.ID([]int{4, 0}), dst, 32, 0)
		f.StartInjection(p1)
		f.StartInjection(p2)
		runUntilDelivered(t, f, 2, 10_000)
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		last := p1.DeliveredAt
		if p2.DeliveredAt > last {
			last = p2.DeliveredAt
		}
		return last
	}
	one, two := run(1), run(2)
	if two >= one {
		t.Errorf("2 consumption channels finished at %d, 1 channel at %d", two, one)
	}
}

func TestSelectionPoliciesDeliverUnderLoad(t *testing.T) {
	for _, pol := range []SelectionPolicy{FirstPort, MostFreeVCs} {
		cfg := testConfig(8, Recovery)
		cfg.Selection = pol
		f := MustNew(cfg)
		// Reuse the random traffic helper semantics inline: moderate
		// load, then drain.
		delivered := 0
		f.OnDelivered = func(p *packet.Packet) { delivered++ }
		injected := 0
		var id packet.ID
		rngState := int64(12345)
		next := func(n int) int {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			v := int((rngState >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		for f.Now() < 3000 {
			for n := 0; n < cfg.Topo.Nodes(); n++ {
				if next(100) < 1 && f.CanStartInjection(topology.NodeID(n)) {
					dst := topology.NodeID(next(cfg.Topo.Nodes()))
					if dst == topology.NodeID(n) {
						continue
					}
					f.StartInjection(packet.New(id, topology.NodeID(n), dst, 16, f.Now()))
					id++
					injected++
				}
			}
			f.Step()
		}
		for f.InFlight() > 0 && f.Now() < 100_000 {
			f.Step()
		}
		if delivered != injected {
			t.Errorf("%v: delivered %d of %d", pol, delivered, injected)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

func TestMostFreeVCsPrefersIdlePort(t *testing.T) {
	cfg := testConfig(8, Recovery)
	cfg.Selection = MostFreeVCs
	f := MustNew(cfg)
	topo := cfg.Topo
	// Destination two hops away diagonally: both +x and +y are minimal
	// from node (0,0).
	dst := topo.ID([]int{1, 1})
	// Occupy all +x VCs at node 0 with long packets heading +x only.
	blockDst := topo.ID([]int{4, 0})
	var id packet.ID
	for v := 0; v < cfg.VCs; v++ {
		p := packet.New(id, 0, blockDst, 64, 0)
		id++
		// Stream packets back to back; each will take a +x VC.
		for !f.CanStartInjection(0) {
			f.Step()
		}
		f.StartInjection(p)
		for i := 0; i < 40; i++ {
			f.Step()
		}
	}
	// Now inject the probe; MostFreeVCs should route it +y immediately.
	probe := packet.New(99, 0, dst, 16, f.Now())
	for !f.CanStartInjection(0) {
		f.Step()
	}
	f.StartInjection(probe)
	for i := 0; i < 400 && !probe.Delivered(); i++ {
		f.Step()
	}
	if !probe.Delivered() {
		t.Fatal("probe not delivered")
	}
	// Minimal distance is 2 hops; if the probe had waited for +x VCs it
	// would have been heavily delayed behind three 64-flit worms.
	if lat := probe.NetworkLatency(); lat > 120 {
		t.Errorf("probe latency %d suggests it did not avoid the congested port", lat)
	}
}

// The event sink sees the full lifecycle of a packet in order.
func TestEventSinkLifecycle(t *testing.T) {
	cfg := testConfig(8, Avoidance)
	f := MustNew(cfg)
	var evs []trace.Event
	f.OnEvent = func(e trace.Event) { evs = append(evs, e) }
	p := packet.New(42, 0, cfg.Topo.ID([]int{2, 0}), 4, 0)
	f.StartInjection(p)
	runUntilDelivered(t, f, 1, 1_000)
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if evs[0].Kind != trace.Injected {
		t.Errorf("first event %v, want injected", evs[0].Kind)
	}
	if last := evs[len(evs)-1]; last.Kind != trace.Delivered || last.Node != p.Dst {
		t.Errorf("last event %v at node %d", last.Kind, last.Node)
	}
	// 2 hops + delivery = 3 routing events.
	routed := 0
	for _, e := range evs {
		if e.Kind == trace.Routed {
			routed++
		}
	}
	if routed != 3 {
		t.Errorf("routed events = %d, want 3", routed)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatal("events out of order")
		}
	}
}

// Recovery emits suspicion and recovery events.
func TestEventSinkRecovery(t *testing.T) {
	cfg := testConfig(8, Recovery)
	cfg.DeadlockTimeout = 8
	f := MustNew(cfg)
	kinds := map[trace.Kind]int{}
	f.OnEvent = func(e trace.Event) { kinds[e.Kind]++ }
	dst := cfg.Topo.ID([]int{2, 0})
	f.StartInjection(packet.New(1, cfg.Topo.ID([]int{0, 0}), dst, 64, 0))
	f.StartInjection(packet.New(2, cfg.Topo.ID([]int{4, 0}), dst, 64, 0))
	runUntilDelivered(t, f, 2, 20_000)
	if kinds[trace.Suspected] == 0 || kinds[trace.RecoveryStarted] == 0 || kinds[trace.RecoveryCompleted] == 0 {
		t.Errorf("missing recovery events: %v", kinds)
	}
	if kinds[trace.RecoveryStarted] != kinds[trace.RecoveryCompleted] {
		t.Errorf("unbalanced recovery events: %v", kinds)
	}
}

func TestSwitchingStringsAndValidation(t *testing.T) {
	if Wormhole.String() != "wormhole" || CutThrough.String() != "cutthrough" {
		t.Error("switching strings")
	}
	if Switching(9).String() == "" {
		t.Error("unknown switching should format")
	}
	c := testConfig(8, Avoidance)
	c.Switching = Switching(9)
	if c.Validate() == nil {
		t.Error("bad switching validated")
	}
}

// Virtual cut-through: a blocked packet's flits collapse into a single
// router buffer instead of spanning the network.
func TestCutThroughBlockedPacketFitsOneBuffer(t *testing.T) {
	cfg := testConfig(8, Recovery)
	cfg.Switching = CutThrough
	cfg.BufDepth = 64
	f := MustNew(cfg)
	dst := cfg.Topo.ID([]int{3, 0})
	// The long blocker wins the delivery channel; the 16-flit probe
	// must wait fully accumulated in its final buffer.
	p1 := packet.New(1, cfg.Topo.ID([]int{4, 0}), dst, 64, 0)
	p2 := packet.New(2, cfg.Topo.ID([]int{0, 0}), dst, 16, 0)
	f.StartInjection(p1)
	f.StartInjection(p2)

	// Step until one of them stalls (blocked on the delivery channel),
	// then verify the blocked worm occupies exactly one buffer.
	sawCompact := false
	for i := 0; i < 400 && f.InFlight() > 0; i++ {
		f.Step()
		for _, p := range []*packet.Packet{p1, p2} {
			if p.Delivered() || p.InjectedAt < 0 || p.SrcRemaining > 0 {
				continue
			}
			if p.BlockedFor(f.Now()) > 4 {
				for i := range f.bufs {
					if f.bufs[i].countOf(f, slotOf(f, p)) == p.Length {
						sawCompact = true
					}
				}
			}
		}
	}
	for f.InFlight() > 0 && f.Now() < 10_000 {
		f.Step()
	}
	if !sawCompact {
		t.Error("no blocked cut-through packet was fully contained in one buffer")
	}
	if !p1.Delivered() || !p2.Delivered() {
		t.Fatal("packets not delivered")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Cut-through under random load conserves flits like wormhole.
func TestCutThroughConservation(t *testing.T) {
	cfg := Config{
		Topo: topology.MustNew(6, 2), VCs: 3, BufDepth: 16,
		Mode: Recovery, DeadlockTimeout: 64, Switching: CutThrough,
	}
	f := MustNew(cfg)
	rng := rand.New(rand.NewSource(5))
	injected, delivered := 0, 0
	f.OnDelivered = func(p *packet.Packet) { delivered++ }
	var id packet.ID
	for f.Now() < 4000 {
		for n := 0; n < cfg.Topo.Nodes(); n++ {
			if rng.Float64() < 0.02 && f.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(cfg.Topo.Nodes()))
				if dst == topology.NodeID(n) {
					continue
				}
				f.StartInjection(packet.New(id, topology.NodeID(n), dst, 16, f.Now()))
				id++
				injected++
			}
		}
		f.Step()
		if f.Now()%500 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f.InFlight() > 0 && f.Now() < 100_000 {
		f.Step()
	}
	if delivered != injected || f.InFlight() != 0 {
		t.Fatalf("delivered %d of %d, %d stuck", delivered, injected, f.InFlight())
	}
}
