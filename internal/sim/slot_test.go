package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/router"
)

// slotConfigs are short runs past saturation that differ in every
// dimension of the storage a Slot reuses: radix, dimension, VCs, buffer
// depth, delivery channels, DECbit marking (on for aimd and notify),
// and with them deadlock mode and switching. They are listed in growing
// order of flit-arena size.
func slotConfigs() []Config {
	rows := []struct {
		k, n, vcs, depth, dlv int
		mode                  router.DeadlockMode
		sw                    router.Switching
		scheme                Scheme
		rate                  float64
	}{
		{4, 2, 2, 2, 1, router.Avoidance, router.Wormhole, Scheme{Kind: Base}, 0.2},
		{4, 3, 3, 4, 2, router.Recovery, router.Wormhole, Scheme{Kind: AIMD}, 0.15},
		{8, 2, 4, 8, 3, router.Avoidance, router.CutThrough, Scheme{Kind: Notify}, 0.15},
		{8, 3, 2, 3, 1, router.Recovery, router.Wormhole, Scheme{Kind: SelfTuned, KeepTrace: true}, 0.1},
		{16, 2, 3, 8, 2, router.Recovery, router.Wormhole, Scheme{Kind: ALO}, 0.1},
	}
	cfgs := make([]Config, len(rows))
	for i, r := range rows {
		cfg := NewConfig()
		cfg.K, cfg.N, cfg.VCs, cfg.BufDepth, cfg.DeliveryChannels = r.k, r.n, r.vcs, r.depth, r.dlv
		cfg.Mode, cfg.Switching, cfg.Scheme, cfg.Rate = r.mode, r.sw, r.scheme, r.rate
		cfg.PacketLength = 8
		cfg.DeadlockTimeout = 64
		cfg.WarmupCycles, cfg.MeasureCycles = 200, 600
		cfg.Seed = 7
		cfgs[i] = cfg
	}
	return cfgs
}

func marshalResult(t *testing.T, r Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSlotMatchesFreshRuns runs slotConfigs on one Slot in growing and
// then in shrinking order, so every arena is both regrown and reused
// from a larger, differently shaped, still-loaded network. Each result
// must marshal to the bytes of a fresh Run of its config, the engine
// that produced it must pass CheckInvariants, and every earlier result
// must keep its bytes: a later run must not write into storage an
// earlier Result holds.
func TestSlotMatchesFreshRuns(t *testing.T) {
	cfgs := slotConfigs()
	fresh := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		// Every run must end with a backlog and packets in flight, or
		// the reused queue slabs and packets would start out empty.
		if r.PacketsCreated <= r.PacketsInjected || r.PacketsInjected <= r.PacketsDelivered {
			t.Fatalf("config %d not saturated: created %d, injected %d, delivered %d",
				i, r.PacketsCreated, r.PacketsInjected, r.PacketsDelivered)
		}
		fresh[i] = marshalResult(t, r)
	}

	order := make([]int, 0, 2*len(cfgs))
	for i := range cfgs {
		order = append(order, i)
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		order = append(order, i)
	}

	var slot Slot
	var held []Result
	var want [][]byte
	for step, i := range order {
		r, err := slot.Run(context.Background(), cfgs[i])
		if err != nil {
			t.Fatalf("step %d (config %d): %v", step, i, err)
		}
		if got := marshalResult(t, r); !bytes.Equal(got, fresh[i]) {
			t.Errorf("step %d (config %d): slot result differs from a fresh run", step, i)
		}
		if err := slot.last.CheckInvariants(); err != nil {
			t.Errorf("step %d (config %d): %v", step, i, err)
		}
		held, want = append(held, r), append(want, fresh[i])
		for j, h := range held {
			if !bytes.Equal(marshalResult(t, h), want[j]) {
				t.Errorf("after step %d: the result of step %d changed", step, j)
			}
		}
	}
}

// TestSlotFailedBuildLeavesSlotEmpty checks that a configuration that
// does not build empties the slot, and that the slot runs the next
// configuration as a fresh engine would.
func TestSlotFailedBuildLeavesSlotEmpty(t *testing.T) {
	cfg := slotConfigs()[1]
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var slot Slot
	if _, err := slot.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Rate = 2
	if _, err := slot.Run(context.Background(), bad); err == nil {
		t.Fatal("rate 2 built an engine")
	}
	if slot.last != nil {
		t.Fatal("a failed build left an engine in the slot")
	}
	got, err := slot.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := marshalResult(t, got), marshalResult(t, want); !bytes.Equal(a, b) {
		t.Errorf("run after a failed build differs from a fresh run:\n%s\n%s", a, b)
	}
}
