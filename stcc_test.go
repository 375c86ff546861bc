package stcc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// quick returns a small, fast configuration through the public API.
func quick() Config {
	cfg := NewConfig()
	cfg.K = 8
	cfg.WarmupCycles = 1_000
	cfg.MeasureCycles = 4_000
	cfg.Rate = 0.005
	return cfg
}

func TestPublicRun(t *testing.T) {
	res, err := Run(quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.AcceptedFlits <= 0 || res.AvgNetworkLatency <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestPublicNewEngine(t *testing.T) {
	e, err := New(quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Fabric().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSchemes(t *testing.T) {
	for _, s := range []Scheme{
		{Kind: Base},
		{Kind: ALO},
		{Kind: StaticGlobal, StaticThreshold: 100},
		{Kind: SelfTuned},
		{Kind: HillClimbOnly},
	} {
		cfg := quick()
		cfg.MeasureCycles = 2_000
		cfg.Scheme = s
		if _, err := Run(cfg); err != nil {
			t.Errorf("%s: %v", s.Kind, err)
		}
	}
}

func TestPublicTopologyAndPatterns(t *testing.T) {
	topo, err := NewTorus(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 256 || topo.TotalVCBuffers(3) != 3072 {
		t.Fatalf("unexpected topology: %v", topo)
	}
	for _, k := range []PatternKind{UniformRandom, BitReversal, PerfectShuffle, Butterfly, Transpose, BitComplement} {
		p, err := NewPattern(k, topo.Nodes())
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		rng := rand.New(rand.NewSource(1))
		if d := p.Dest(3, rng); d < 0 || d >= NodeID(topo.Nodes()) {
			t.Errorf("%s: destination out of range", k)
		}
	}
}

func TestPublicSchedules(t *testing.T) {
	pat, err := NewPattern(UniformRandom, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := Steady(pat, Bernoulli{P: 0.01})
	if s.At(1<<30) == nil {
		t.Error("steady schedule ended")
	}
	ph := []Phase{{Duration: 10, Pattern: pat, Process: Periodic{Interval: 2}}}
	if _, err := NewSchedule(ph, true); err != nil {
		t.Fatal(err)
	}
	bursty, err := PaperBurstySchedule(64, BurstyOptions{LowDuration: 100, HighDuration: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursty.Phases) != 9 {
		t.Errorf("bursty phases = %d", len(bursty.Phases))
	}
}

func TestPublicTunerConfig(t *testing.T) {
	tc := DefaultTunerConfig(3072)
	if tc.TotalBuffers != 3072 || tc.ResetPeriods != 5 {
		t.Errorf("tuner defaults: %+v", tc)
	}
}

// localGreedy is a trivial custom throttler for the extension-point test:
// it blocks injection whenever fewer than half the local output VCs on
// port 0 are free.
type localGreedy struct{ view LocalView }

func (l *localGreedy) BindView(v LocalView) { l.view = v }
func (l *localGreedy) AllowInjection(_ int64, node, _ NodeID) bool {
	return l.view.FreeVCs(node, 0)*2 >= l.view.VCsPerPort()
}
func (l *localGreedy) Tick(int64)   {}
func (l *localGreedy) Name() string { return "local-greedy" }

func TestPublicCustomThrottler(t *testing.T) {
	cfg := quick()
	cfg.Scheme = Scheme{Kind: CustomScheme, Custom: &localGreedy{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("custom throttler delivered nothing")
	}
}

func TestPublicCustomThrottlerRequired(t *testing.T) {
	cfg := quick()
	cfg.Scheme = Scheme{Kind: CustomScheme}
	if _, err := Run(cfg); err == nil {
		t.Fatal("nil custom throttler accepted")
	}
}

func TestPublicScales(t *testing.T) {
	if PaperScale.Measure != 500_000 || PaperScale.Warmup != 100_000 {
		t.Errorf("paper scale: %+v", PaperScale)
	}
	if QuickScale.Measure == 0 {
		t.Error("quick scale empty")
	}
}

func TestPublicDeadlockModes(t *testing.T) {
	cfg := quick()
	cfg.Mode = Avoidance
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "avoidance" {
		t.Errorf("mode = %q", res.Mode)
	}
}

func TestPublicEventRecorder(t *testing.T) {
	cfg := quick()
	cfg.MeasureCycles = 2_000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(128)
	e.SetEventSink(rec.Record)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Total() == 0 {
		t.Fatal("no lifecycle events recorded")
	}
}

func TestPublicExperimentDrivers(t *testing.T) {
	tab1, ok := LookupExperiment("tab1")
	if !ok {
		t.Fatal("LookupExperiment(tab1) failed")
	}
	var out bytes.Buffer
	if err := tab1.Run(ExperimentContext{Out: &out}); err != nil || !strings.Contains(out.String(), "decrement") {
		t.Errorf("tab1: %v, report %q", err, out.String())
	}
	// One tiny end-to-end grid through the facade: fig1 trimmed to its
	// lowest rate, then reported by the entry's own formatter.
	fig1, _ := LookupExperiment("fig1")
	scale := Scale{Warmup: 200, Measure: 1_200}
	spec := fig1.Spec(scale)
	for i := range spec.Groups {
		spec.Groups[i].Points = spec.Groups[i].Points[:1]
	}
	grouped, err := Runner{}.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := fig1.Report(ExperimentContext{Scale: scale, Out: &out}, spec, grouped); err != nil {
		t.Fatal(err)
	}
	if len(spec.Groups) != 2 || !strings.Contains(out.String(), "butterfly") {
		t.Errorf("fig1: %d curves, report %q", len(spec.Groups), out.String())
	}
}

func TestPublicAnalysis(t *testing.T) {
	pts := []RatePoint{{Rate: 0.01, Accepted: 0.1}, {Rate: 0.02, Accepted: 0.3}, {Rate: 0.03, Accepted: 0.1}}
	k, err := FindKnee(pts)
	if err != nil || k.Peak != 0.3 {
		t.Fatalf("FindKnee: %v %+v", err, k)
	}
	cfg := quick()
	cfg.MeasureCycles = 1_200
	rep, err := Replicate(Runner{}, cfg, []int64{1, 2})
	if err != nil || rep.Accepted.N != 2 {
		t.Fatalf("Replicate: %v", err)
	}
	rows, err := CompareSchemes(Runner{}, cfg, []Scheme{{Kind: Base}, {Kind: SelfTuned}}, []int64{1})
	if err != nil || len(rows) != 2 {
		t.Fatalf("CompareSchemes: %v", err)
	}
	if hm := Heatmap([]float64{0, 1, 2, 3}, 2); hm == "" {
		t.Error("Heatmap empty")
	}
}
