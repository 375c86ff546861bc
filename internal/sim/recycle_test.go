package sim

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
)

// recycleConfig is a small recovery-mode network driven past saturation,
// so Disha drains, throttling, and heavy packet turnover all happen
// within a few thousand cycles.
func recycleConfig() Config {
	cfg := NewConfig()
	cfg.K, cfg.N = 8, 2
	cfg.VCs, cfg.BufDepth = 3, 4
	cfg.PacketLength = 8
	cfg.DeadlockTimeout = 64
	cfg.WarmupCycles = 1
	cfg.MeasureCycles = 1 << 40
	cfg.Rate = 0.05
	cfg.Seed = 3
	cfg.Scheme = Scheme{Kind: Base}
	return cfg
}

// TestRecycleDuringRecoveryDrain steps a saturated recovery-mode engine
// and checks invariants while Disha drains are in flight: packets
// recycled by deliveries (including recovered packets' own deliveries)
// must never be reachable from network state, even while the recovery
// lane holds other frozen worms.
func TestRecycleDuringRecoveryDrain(t *testing.T) {
	e, err := New(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	draining := false // between a drain's RecoveryStarted and RecoveryCompleted
	e.fab.OnEvent = func(ev trace.Event) {
		switch ev.Kind {
		case trace.RecoveryStarted:
			draining = true
		case trace.RecoveryCompleted:
			draining = false
		}
	}
	drainChecks := 0
	for i := 0; i < 6000; i++ {
		e.Step()
		if draining && i%7 == 0 {
			// An active drain with pooled packets in flight is exactly
			// the state where a premature recycle would corrupt the
			// fabric; the invariant walk covers every buffer, latch, and
			// source slot.
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d (recovery active): %v", i, err)
			}
			drainChecks++
		}
	}
	if e.fab.Recoveries() == 0 {
		t.Fatal("no recoveries completed; config not saturated enough to exercise the drain path")
	}
	if drainChecks == 0 {
		t.Fatal("never observed an active recovery; cannot claim the drain path was checked")
	}
	if e.pool.Reuses() == 0 {
		t.Fatal("pool never reused a packet; recycling was not exercised")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceEventIDsUniquePerPacket runs a pooled engine with an event
// sink attached and checks that trace events identify packets by ID, not
// by struct identity: every Injected event carries a distinct ID even
// though the underlying Packet structs are reused many times over.
func TestTraceEventIDsUniquePerPacket(t *testing.T) {
	e, err := New(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	injected := map[packet.ID]bool{}
	delivered := map[packet.ID]bool{}
	e.fab.OnEvent = func(ev trace.Event) {
		switch ev.Kind {
		case trace.Injected:
			if injected[ev.Packet] {
				t.Fatalf("packet ID %d injected twice: struct reuse leaked into the trace", ev.Packet)
			}
			injected[ev.Packet] = true
		case trace.Delivered:
			if delivered[ev.Packet] {
				t.Fatalf("packet ID %d delivered twice", ev.Packet)
			}
			if !injected[ev.Packet] {
				t.Fatalf("packet ID %d delivered but never injected", ev.Packet)
			}
			delivered[ev.Packet] = true
		}
	}
	for i := 0; i < 4000; i++ {
		e.Step()
	}
	if e.pool.Reuses() == 0 {
		t.Fatal("pool never reused a packet; ID uniqueness was not tested under reuse")
	}
	if len(delivered) == 0 {
		t.Fatal("no deliveries observed")
	}
}

// TestEngineCheckInvariantsDetectsDoubleRecycle corrupts the engine's
// pool discipline directly — returning an already-recycled packet a
// second time — and checks the engine-level invariant walk reports it.
func TestEngineCheckInvariantsDetectsDoubleRecycle(t *testing.T) {
	e, err := New(recycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("healthy engine failed invariants: %v", err)
	}
	// Reach into the pool the way a buggy caller would: re-Put a packet
	// that is already on the free list.
	p := e.pool.Get(packet.ID(e.injected), 0, 1, e.cfg.PacketLength, 0)
	e.pool.Put(p)
	e.pool.Put(p)
	if err := e.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a double recycle")
	}
}
