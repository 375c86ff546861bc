package router

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/topology"
)

// Single-flit packets exercise a flit that is both head and tail
// (isHead and isTail hold at once).
func TestSingleFlitPackets(t *testing.T) {
	for _, mode := range []DeadlockMode{Avoidance, Recovery} {
		cfg := testConfig(8, mode)
		f := MustNew(cfg)
		var pkts []*packet.Packet
		for i := 0; i < 4; i++ {
			p := packet.New(packet.ID(i), topology.NodeID(i), topology.NodeID(i+8), 1, 0)
			pkts = append(pkts, p)
			f.StartInjection(p)
		}
		runUntilDelivered(t, f, 4, 5_000)
		for _, p := range pkts {
			if p.Consumed != 1 {
				t.Errorf("%v consumed %d", p, p.Consumed)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// Packets far longer than the total buffering along their path must still
// stream through (the worm spans source + network simultaneously).
func TestPacketLongerThanPath(t *testing.T) {
	cfg := testConfig(8, Avoidance)
	f := MustNew(cfg)
	p := packet.New(1, 0, 1, 256, 0) // 1 hop, buffers hold at most ~32 flits
	f.StartInjection(p)
	runUntilDelivered(t, f, 1, 5_000)
	if p.Consumed != 256 {
		t.Fatalf("consumed %d", p.Consumed)
	}
	// Zero-load latency formula still holds for worms longer than the
	// path buffering.
	if got, want := p.NetworkLatency(), int64(3*2+256-1); got != want {
		t.Errorf("latency %d, want %d", got, want)
	}
}

// Minimum-size buffers (depth 1) force per-flit backpressure everywhere.
func TestDepthOneBuffers(t *testing.T) {
	cfg := testConfig(4, Avoidance)
	cfg.BufDepth = 1
	f := MustNew(cfg)
	p := packet.New(1, 0, f.topo.ID([]int{2, 2}), 8, 0)
	f.StartInjection(p)
	runUntilDelivered(t, f, 1, 10_000)
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// The head flit is routed at every router it visits: hops == distance+1
// (every router on the path plus the delivery allocation at the
// destination).
func TestHopsCountMatchesDistance(t *testing.T) {
	cfg := testConfig(8, Avoidance)
	topo := cfg.Topo
	for _, dstc := range [][]int{{1, 0}, {3, 2}, {7, 7}, {0, 5}} {
		f := MustNew(cfg)
		dst := topo.ID(dstc)
		p := packet.New(1, 0, dst, 4, 0)
		f.StartInjection(p)
		runUntilDelivered(t, f, 1, 5_000)
		if want := topo.Distance(0, dst) + 1; p.Hops != want {
			t.Errorf("dst %v: hops %d, want %d", dstc, p.Hops, want)
		}
	}
}

// Wrap-around links must carry traffic: a packet whose minimal route uses
// the wrap edge arrives within the minimal latency bound.
func TestWrapAroundRouting(t *testing.T) {
	cfg := testConfig(8, Avoidance)
	f := MustNew(cfg)
	dst := cfg.Topo.ID([]int{7, 7}) // distance 2 via both wraps
	p := packet.New(1, 0, dst, 4, 0)
	f.StartInjection(p)
	runUntilDelivered(t, f, 1, 1_000)
	if got, want := p.NetworkLatency(), int64(3*(2+1)+4-1); got != want {
		t.Errorf("wrap route latency %d, want %d (minimal)", got, want)
	}
}

// Property: random fabrics with random small traffic always conserve
// flits and satisfy the structural invariants after draining.
func TestFabricConservationQuick(t *testing.T) {
	f := func(seed int64, kRaw, modeRaw, vcRaw, depthRaw uint8) bool {
		k := 4 + int(kRaw)%3         // 4..6
		vcs := 2 + int(vcRaw)%2      // 2..3
		depth := 1 + int(depthRaw)%4 // 1..4
		mode := Avoidance
		if modeRaw%2 == 1 {
			mode = Recovery
		}
		cfg := Config{
			Topo: topology.MustNew(k, 2), VCs: vcs, BufDepth: depth,
			Mode: mode, DeadlockTimeout: 40,
		}
		fab := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		injected, delivered := 0, 0
		fab.OnDelivered = func(p *packet.Packet) { delivered++ }
		var id packet.ID
		for fab.Now() < 800 {
			for n := 0; n < cfg.Topo.Nodes(); n++ {
				if rng.Float64() < 0.01 && fab.CanStartInjection(topology.NodeID(n)) {
					dst := topology.NodeID(rng.Intn(cfg.Topo.Nodes()))
					if dst == topology.NodeID(n) {
						continue
					}
					fab.StartInjection(packet.New(id, topology.NodeID(n), dst, 1+rng.Intn(20), fab.Now()))
					id++
					injected++
				}
			}
			fab.Step()
		}
		deadline := fab.Now() + 50_000
		for fab.InFlight() > 0 && fab.Now() < deadline {
			fab.Step()
		}
		return fab.InFlight() == 0 && delivered == injected && fab.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Self-addressed packets are delivered locally without touching the
// network (zero network distance).
func TestSelfAddressedPacket(t *testing.T) {
	cfg := testConfig(8, Recovery)
	f := MustNew(cfg)
	p := packet.New(1, 5, 5, 16, 0)
	f.StartInjection(p)
	runUntilDelivered(t, f, 1, 1_000)
	if got, want := p.NetworkLatency(), int64(3*1+16-1); got != want {
		t.Errorf("local delivery latency %d, want %d", got, want)
	}
	if p.Hops != 1 {
		t.Errorf("hops %d, want 1 (delivery allocation only)", p.Hops)
	}
}

// After heavy recovery-mode churn, the suspect queue must eventually
// drain (no zombie suspects once the network empties).
func TestSuspectQueueDrains(t *testing.T) {
	cfg := testConfig(4, Recovery)
	cfg.DeadlockTimeout = 8
	cfg.TokenWaitTimeout = 40
	f := MustNew(cfg)
	rng := rand.New(rand.NewSource(11))
	var id packet.ID
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
	}
	for (f.InFlight() > 0 || f.SuspectedPackets() > 0) && f.Now() < 300_000 {
		f.Step()
	}
	if f.InFlight() != 0 || f.SuspectedPackets() != 0 {
		t.Fatalf("leftovers: %d in flight, %d suspects", f.InFlight(), f.SuspectedPackets())
	}
	if f.RecoveryActive() {
		t.Error("token still held")
	}
}
