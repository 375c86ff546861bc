package sim

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// fastConfig is a small, quick configuration for tests.
func fastConfig() Config {
	cfg := NewConfig()
	cfg.K = 8
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 4000
	cfg.Rate = 0.004
	return cfg
}

func TestNewConfigPaperDefaults(t *testing.T) {
	cfg := NewConfig()
	if cfg.K != 16 || cfg.N != 2 || cfg.VCs != 3 || cfg.BufDepth != 8 || cfg.PacketLength != 16 {
		t.Errorf("network defaults: %+v", cfg)
	}
	if cfg.TotalBuffers() != 3072 {
		t.Errorf("TotalBuffers = %d, want 3072", cfg.TotalBuffers())
	}
	if cfg.GatherDuration() != 32 {
		t.Errorf("g = %d, want 32", cfg.GatherDuration())
	}
	if cfg.TotalCycles() != 600_000 {
		t.Errorf("total cycles = %d, want 600000", cfg.TotalCycles())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad K", func(c *Config) { c.K = 1 }},
		{"bad VCs", func(c *Config) { c.VCs = 0 }},
		{"bad packet length", func(c *Config) { c.PacketLength = 0 }},
		{"bad rate", func(c *Config) { c.Rate = 1.5 }},
		{"negative rate", func(c *Config) { c.Rate = -0.1 }},
		{"bad pattern", func(c *Config) { c.Pattern = "nope" }},
		{"bad hop delay", func(c *Config) { c.SidebandHopDelay = 0 }},
		{"bad measure", func(c *Config) { c.MeasureCycles = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupCycles = -1 }},
		{"negative sample", func(c *Config) { c.SampleInterval = -5 }},
		{"bad scheme", func(c *Config) { c.Scheme.Kind = "nope" }},
		{"static no threshold", func(c *Config) { c.Scheme = Scheme{Kind: StaticGlobal} }},
		{"bad estimator", func(c *Config) { c.Scheme.Estimator = "nope" }},
		{"bad tuning period", func(c *Config) { c.Scheme.TuningPeriod = 33 }},
		{"bad timeout", func(c *Config) { c.DeadlockTimeout = 0 }},
	}
	for _, m := range muts {
		cfg := fastConfig()
		m.mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: validated", m.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted", m.name)
		}
	}
}

func TestRunBaseLightLoad(t *testing.T) {
	cfg := fastConfig()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At light load everything offered is delivered.
	if math.Abs(r.OfferedRate-cfg.Rate) > 0.001 {
		t.Errorf("offered rate %v, want ~%v", r.OfferedRate, cfg.Rate)
	}
	wantFlits := cfg.Rate * float64(cfg.PacketLength)
	if math.Abs(r.AcceptedFlits-wantFlits) > 0.2*wantFlits {
		t.Errorf("accepted %v flits/node/cyc, want ~%v", r.AcceptedFlits, wantFlits)
	}
	if r.AvgNetworkLatency <= 0 {
		t.Error("no latency measured")
	}
	if r.PacketsDelivered == 0 || r.PacketsDelivered > r.PacketsCreated {
		t.Errorf("delivered %d of %d", r.PacketsDelivered, r.PacketsCreated)
	}
	if r.Throughput.Len() == 0 || r.FullBuffers.Len() == 0 {
		t.Error("missing time series")
	}
	if r.Scheme != Base || r.Mode != "recovery" || r.Pattern != "random" {
		t.Errorf("labels: %+v", r)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := fastConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PacketsCreated != b.PacketsCreated || a.AcceptedFlits != b.AcceptedFlits ||
		a.AvgNetworkLatency != b.AvgNetworkLatency {
		t.Error("same config+seed gave different results")
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.PacketsCreated == a.PacketsCreated && c.AvgNetworkLatency == a.AvgNetworkLatency {
		t.Error("different seed gave identical results (suspicious)")
	}
}

func TestEngineRunsOnce(t *testing.T) {
	e, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestInvariantsAfterRun(t *testing.T) {
	for _, kind := range []SchemeKind{Base, ALO, SelfTuned} {
		cfg := fastConfig()
		cfg.Rate = 0.02 // heavy
		cfg.Scheme.Kind = kind
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if err := e.Fabric().CheckInvariants(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestAllSchemesRun(t *testing.T) {
	for _, s := range []Scheme{
		{Kind: Base},
		{Kind: ALO},
		{Kind: BusyVC},
		{Kind: BusyVC, BusyLimit: 4},
		{Kind: StaticGlobal, StaticThreshold: 100},
		{Kind: SelfTuned},
		{Kind: HillClimbOnly},
		{Kind: SelfTuned, Estimator: core.LastValueEstimator},
		{Kind: SelfTuned, TuningPeriod: 32},
	} {
		cfg := fastConfig()
		cfg.MeasureCycles = 2000
		cfg.Scheme = s
		if _, err := Run(cfg); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}

func TestSelfTunedTraceRecorded(t *testing.T) {
	cfg := fastConfig()
	cfg.Rate = 0.02 // moderate load so tuning is active
	cfg.Scheme = Scheme{Kind: SelfTuned, KeepTrace: true}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.GatherDuration()
	wantPeriods := int(cfg.TotalCycles() / (3 * g))
	if len(r.ThresholdTrace) < wantPeriods-1 || len(r.ThresholdTrace) > wantPeriods+1 {
		t.Errorf("trace has %d points, want ~%d", len(r.ThresholdTrace), wantPeriods)
	}
	for i, tp := range r.ThresholdTrace {
		if tp.Threshold < 0 || tp.Throughput < 0 {
			t.Fatalf("trace point %d malformed: %+v", i, tp)
		}
		if i > 0 && tp.Cycle <= r.ThresholdTrace[i-1].Cycle {
			t.Fatalf("trace cycles not increasing at %d", i)
		}
	}
	if r.FinalThreshold <= 0 {
		t.Error("final threshold should be positive under sustained moderate load")
	}
}

func TestThrottlingReducesFullBuffersUnderOverload(t *testing.T) {
	mk := func(s Scheme) Result {
		cfg := fastConfig()
		cfg.Rate = 0.05 // far beyond saturation
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 10000
		cfg.Scheme = s
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := mk(Scheme{Kind: Base})
	tight := mk(Scheme{Kind: StaticGlobal, StaticThreshold: 30})
	if tight.AvgFullBuffers >= base.AvgFullBuffers {
		t.Errorf("static throttling did not reduce congestion: %v vs %v",
			tight.AvgFullBuffers, base.AvgFullBuffers)
	}
	if tight.ThrottleDenials == 0 || tight.ThrottledCycles == 0 {
		t.Error("no throttling recorded under overload")
	}
	if base.ThrottleDenials != 0 {
		t.Error("base scheme recorded throttling")
	}
}

func TestStaticThresholdControlsOccupancy(t *testing.T) {
	// A tighter threshold should hold fewer full buffers.
	run := func(thr float64) float64 {
		cfg := fastConfig()
		cfg.Rate = 0.04
		cfg.Scheme = Scheme{Kind: StaticGlobal, StaticThreshold: thr}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.AvgFullBuffers
	}
	loose, tight := run(200), run(20)
	if tight >= loose {
		t.Errorf("threshold 20 held %v full buffers, threshold 200 held %v", tight, loose)
	}
}

func TestBurstyScheduleRuns(t *testing.T) {
	sched, err := traffic.PaperBurstySchedule(64, traffic.PaperBurstyOptions{
		LowDuration: 1000, HighDuration: 1500,
		LowInterval: 400, HighInterval: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Schedule = sched
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = sched.TotalDuration()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pattern != "schedule" {
		t.Errorf("pattern label %q", r.Pattern)
	}
	if r.PacketsCreated == 0 {
		t.Error("bursty schedule generated nothing")
	}
	// Throughput must vary between low and high phases.
	early := r.Throughput.Window(0, 1000)
	burst := r.Throughput.Window(1200, 2400)
	if burst <= early {
		t.Errorf("burst throughput %v not above low-phase %v", burst, early)
	}
}

func TestAvoidanceModeRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.Mode = router.Avoidance
	cfg.Rate = 0.02
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recoveries != 0 {
		t.Error("avoidance mode performed recoveries")
	}
	if r.Mode != "avoidance" {
		t.Errorf("mode label %q", r.Mode)
	}
}

func TestTunerOverrideApplied(t *testing.T) {
	cfg := fastConfig()
	tc := core.DefaultTunerConfig(cfg.TotalBuffers())
	tc.InitialFraction = 0.5
	cfg.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc, KeepTrace: true}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before any tuning period, the initial threshold reflects the
	// overridden fraction.
	if got, want := e.glob.Threshold(), 0.5*float64(cfg.TotalBuffers()); got != want {
		t.Errorf("override ignored: threshold %v, want %v", got, want)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntervalHonored(t *testing.T) {
	cfg := fastConfig()
	cfg.SampleInterval = 100
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput.Interval != 100 {
		t.Errorf("interval %d", r.Throughput.Interval)
	}
	if int64(r.Throughput.Len()) != cfg.TotalCycles()/100 {
		t.Errorf("series length %d", r.Throughput.Len())
	}
}

func TestResultString(t *testing.T) {
	cfg := fastConfig()
	cfg.MeasureCycles = 1000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Error("empty result string")
	}
}

func TestExtensionKnobsRun(t *testing.T) {
	base := fastConfig()
	base.MeasureCycles = 2000
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"delivery channels", func(c *Config) { c.DeliveryChannels = 2 }},
		{"first-port selection", func(c *Config) { c.Selection = router.FirstPort }},
		{"mostfree selection", func(c *Config) { c.Selection = router.MostFreeVCs }},
		{"metapacket gather", func(c *Config) {
			c.SidebandMechanism = sideband.MetaPacket
			c.Scheme = Scheme{Kind: SelfTuned}
		}},
		{"piggyback gather", func(c *Config) {
			c.SidebandMechanism = sideband.Piggyback
			c.PiggybackP = 0.5
			c.Scheme = Scheme{Kind: SelfTuned}
		}},
		{"narrow sideband", func(c *Config) {
			c.SidebandBits = 9
			c.Scheme = Scheme{Kind: SelfTuned}
		}},
		{"token wait override", func(c *Config) { c.TokenWaitTimeout = 100 }},
	}
	for _, cse := range cases {
		cfg := base
		cse.mut(&cfg)
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", cse.name, err)
		}
	}
}

func TestExtensionKnobValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.DeliveryChannels = -1
	if cfg.Validate() == nil {
		t.Error("negative delivery channels validated")
	}
	cfg = fastConfig()
	cfg.Selection = router.SelectionPolicy(9)
	if cfg.Validate() == nil {
		t.Error("bad selection policy validated")
	}
	cfg = fastConfig()
	cfg.PiggybackP = -1
	if cfg.Validate() == nil {
		t.Error("bad piggyback probability validated")
	}
}

func TestRunWithProgressNegativeInterval(t *testing.T) {
	e, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunWithProgress(-1, func(int64) {}); err == nil {
		t.Error("negative progress interval accepted")
	}
	// The rejected call must not have consumed the engine.
	if _, err := e.Run(); err != nil {
		t.Errorf("engine unusable after rejected interval: %v", err)
	}
}

func TestRunWithProgressAlreadyRun(t *testing.T) {
	e, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	_, err = e.RunWithProgress(100, func(int64) {})
	if err == nil {
		t.Fatal("second run accepted")
	}
	if want := "engine already run"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// budgetThrottler rations injection to a fixed number of packet starts
// per cycle, creating cross-node contention for injection slots.
type budgetThrottler struct {
	perCycle int
	used     int
}

func (b *budgetThrottler) AllowInjection(int64, topology.NodeID, topology.NodeID) bool {
	if b.used >= b.perCycle {
		return false
	}
	b.used++
	return true
}
func (b *budgetThrottler) Tick(int64)                       { b.used = 0 }
func (b *budgetThrottler) Observe(congestion.FeedbackEvent) {}

// coinThrottler admits a packet start on a coin flip from its own RNG:
// its decisions depend on every draw made before them.
type coinThrottler struct{ rng *rand.Rand }

func (c *coinThrottler) AllowInjection(int64, topology.NodeID, topology.NodeID) bool {
	return c.rng.Intn(2) == 0
}
func (c *coinThrottler) Tick(int64)                       {}
func (c *coinThrottler) Observe(congestion.FeedbackEvent) {}

// TestCustomFactoryFreshPerRun runs one Config with a stateful custom
// scheme twice: the factory builds a fresh controller for each run, so
// the second run must not inherit the first run's RNG position and both
// results must marshal to the same bytes.
func TestCustomFactoryFreshPerRun(t *testing.T) {
	calls := 0
	cfg := fastConfig()
	cfg.Rate = 0.05
	cfg.Scheme = Scheme{Kind: Custom, Custom: func(congestion.Env) (congestion.Controller, error) {
		calls++
		return &coinThrottler{rng: rand.New(rand.NewSource(7))}, nil
	}}
	var runs [2][]byte
	for i := range runs {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.ThrottleDenials == 0 {
			t.Fatal("the coin never denied an injection; the test exercises nothing")
		}
		runs[i] = marshalResult(t, r)
	}
	if calls != 2 {
		t.Errorf("factory called %d times for two runs, want 2", calls)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Errorf("second run of one config differs:\n%s\n%s", runs[0], runs[1])
	}
}

// TestInjectionFairnessUnderContention verifies the rotating injection
// scan: when a throttler rations injection slots, every node must win a
// comparable share rather than the low-numbered nodes capturing the
// budget every cycle.
func TestInjectionFairnessUnderContention(t *testing.T) {
	cfg := fastConfig()
	cfg.PacketLength = 4
	cfg.Rate = 0.2 // every source queue stays backlogged
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 4000
	cfg.Scheme = Scheme{Kind: Custom, Custom: func(congestion.Env) (congestion.Controller, error) {
		return &budgetThrottler{perCycle: 4}, nil
	}}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := e.topo.Nodes()
	perNode := make([]int, nodes)
	e.fab.OnEvent = func(ev trace.Event) {
		if ev.Kind == trace.Injected {
			perNode[ev.Src]++
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	minInj, maxInj := perNode[0], perNode[0]
	for _, c := range perNode[1:] {
		if c < minInj {
			minInj = c
		}
		if c > maxInj {
			maxInj = c
		}
	}
	if minInj == 0 {
		t.Fatalf("some node never injected: %v", perNode)
	}
	// With a fixed scan start, nodes 0..3 would take ~every slot and
	// high-numbered nodes would starve; the rotating scan should keep
	// the spread tight.
	if maxInj > 2*minInj {
		t.Errorf("injection unbalanced under contention: min %d, max %d", minInj, maxInj)
	}
}
