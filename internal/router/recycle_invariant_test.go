package router

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestCheckInvariantsDetectsUseAfterRecycle plants the exact bug the
// recycling guard exists for: a packet returned to a free list while its
// flits are still buffered in the network. The invariant walk must name
// it instead of letting a future Get hand the same struct to a second
// logical packet.
func TestCheckInvariantsDetectsUseAfterRecycle(t *testing.T) {
	f := MustNew(testConfig(8, Recovery))
	pool := packet.NewPool()
	p := pool.Get(1, 0, topology.NodeID(3), 8, 0)
	f.StartInjection(p)
	for i := 0; i < 4; i++ {
		f.Step() // head is routed and flits sit buffered mid-network
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("healthy fabric failed invariants: %v", err)
	}
	pool.Put(p) // premature: the fabric still references p
	err := f.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a recycled packet still in the network")
	}
	if !strings.Contains(err.Error(), "use-after-recycle") {
		t.Fatalf("error %q does not identify the use-after-recycle", err)
	}
}

// TestPooledFabricMatchesFreshFabric routes the same traffic through a
// fabric fed by pool.Get and one fed by packet.New and requires
// identical per-packet delivery cycles and latencies: the pool's reset
// must leave no residue (stale mode, timestamps) that could alter
// routing or timing.
func TestPooledFabricMatchesFreshFabric(t *testing.T) {
	type delivery struct {
		id       packet.ID
		at       int64
		latency  int64
		hops     int
		consumed int
	}
	run := func(pooled bool) []delivery {
		f := MustNew(testConfig(8, Recovery))
		pool := packet.NewPool()
		var log []delivery
		f.OnDelivered = func(p *packet.Packet) {
			log = append(log, delivery{p.ID, p.DeliveredAt, p.NetworkLatency(), p.Hops, p.Consumed})
			if pooled {
				pool.Put(p)
			}
		}
		var id packet.ID
		for round := 0; round < 60; round++ {
			for n := 0; n < 8; n++ {
				src := topology.NodeID((n*7 + round) % 64)
				dst := topology.NodeID((n*13 + round*5) % 64)
				if src == dst || !f.CanStartInjection(src) {
					continue
				}
				var p *packet.Packet
				if pooled {
					p = pool.Get(id, src, dst, 8, f.Now())
				} else {
					p = packet.New(id, src, dst, 8, f.Now())
				}
				id++
				f.StartInjection(p)
			}
			for i := 0; i < 20; i++ {
				f.Step()
			}
		}
		if pooled && pool.Reuses() == 0 {
			t.Fatal("pooled run never reused a packet")
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	fresh := run(false)
	reused := run(true)
	if len(fresh) == 0 {
		t.Fatal("no deliveries")
	}
	if len(fresh) != len(reused) {
		t.Fatalf("fresh delivered %d packets, pooled %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("delivery %d diverged: fresh %+v, pooled %+v", i, fresh[i], reused[i])
		}
	}
}
