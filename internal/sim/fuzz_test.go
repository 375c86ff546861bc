package sim

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/traffic"
)

// Harness bounds: inputs beyond them still go through parse, Validate
// and the round trip, but are not built, so one input never costs more
// than an ext12-sized engine.
const (
	fuzzMaxNodes    = 512 // ext12's 8-ary 3-cube
	fuzzMaxBufDepth = 64
	fuzzMaxHopDelay = 64 // the notification wheel is diameter x hop delay
)

// FuzzConfigJSON feeds arbitrary bytes to the Config wire form. Any
// input that parses and validates must run a positive number of
// cycles, marshal, re-parse and keep its fingerprint, and, within the
// harness bounds, sim.New must build it (Validate rejects everything
// New would) and the engine must step through cycle 0 — the first
// gather, controller tick and fabric step — and cycle 1.
func FuzzConfigJSON(f *testing.F) {
	cube := NewConfig()
	cube.K, cube.N = 8, 3
	cube.Rate = 0.05
	cube.Scheme = Scheme{Kind: SelfTuned}
	sharded := NewConfig()
	sharded.ShardWorkers = 8
	sharded.ShardDispatch = router.DispatchSharded
	// Seeds that set the parameters New resolves beyond Validate's
	// field checks: an AIMD window, a tuner override, and a schedule
	// whose patterns depend on the node count.
	aimd := NewConfig()
	aimd.K = 4
	aimd.Scheme = Scheme{Kind: AIMD, WindowMin: 2, WindowMax: 32}
	tuned := NewConfig()
	tuner := core.DefaultTunerConfig(tuned.TotalBuffers())
	tuned.Scheme = Scheme{Kind: SelfTuned, Tuner: &tuner}
	bursty := NewConfig()
	bursty.K = 4
	bursty.ScheduleSpec = traffic.PaperBurstySpec(traffic.PaperBurstyOptions{})
	seeds := []Config{NewConfig(), cube, sharded, aimd, tuned, bursty}
	// Seeds on both sides of each bound that keeps a validated config
	// from hanging, exhausting memory or misreporting: the side-band
	// width, the gather cap, a whole sample interval in the measured
	// window, the AIMD window, the notify staleness and the packet
	// length a flit's int32 index can number.
	small := func(mut func(*Config)) {
		c := NewConfig()
		c.K, c.WarmupCycles, c.MeasureCycles = 4, 100, 400
		mut(&c)
		seeds = append(seeds, c)
	}
	for _, d := range []int{0, 1} {
		small(func(c *Config) { c.SidebandBits = 63 + d })
		small(func(c *Config) { c.SidebandHopDelay, c.SampleInterval = 1<<18+d, 100 })
		small(func(c *Config) { c.SampleInterval = 250 + int64(d) }) // [250, 500) fits [100, 500)
		small(func(c *Config) { c.Scheme = Scheme{Kind: AIMD, WindowMax: math.MaxInt32 + d} })
		small(func(c *Config) {
			c.Scheme = Scheme{Kind: Notify, Staleness: math.MaxInt64 - c.TotalCycles() + int64(d)}
		})
		small(func(c *Config) { c.PacketLength = math.MaxInt32 + d })
	}
	for _, c := range seeds {
		data, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			return
		}
		if c.TotalCycles() <= 0 {
			t.Fatalf("validated config runs %d cycles", c.TotalCycles())
		}
		fp, err := c.Fingerprint()
		if err != nil {
			t.Fatalf("validated config has no fingerprint: %v", err)
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("validated config does not marshal: %v", err)
		}
		var back Config
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-parse of own encoding: %v\n%s", err, out)
		}
		if got, err := back.Fingerprint(); err != nil || got != fp {
			t.Fatalf("round trip changed fingerprint %s -> %s (err %v)\n%s", fp, got, err, out)
		}
		if !fuzzCheap(c) {
			return
		}
		e, err := New(c)
		if err != nil {
			t.Fatalf("New rejected a validated config: %v\n%s", err, out)
		}
		e.Step()
		e.Step()
		e.Close()
	})
}

// fuzzCheap reports whether c is within the harness bounds.
func fuzzCheap(c Config) bool {
	if c.BufDepth > fuzzMaxBufDepth || c.SidebandHopDelay > fuzzMaxHopDelay {
		return false
	}
	nodes := 1
	for i := 0; i < c.N; i++ {
		if nodes *= c.K; nodes > fuzzMaxNodes {
			return false
		}
	}
	return true
}
