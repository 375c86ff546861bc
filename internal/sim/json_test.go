package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/traffic"
)

// jsonCases covers every serializable corner of the config surface:
// enum-bearing fields, the optional tuner override, and declarative
// schedules.
func jsonCases() map[string]Config {
	withSpec := NewConfig()
	withSpec.ScheduleSpec = traffic.SteadySpec(traffic.UniformRandom,
		traffic.ProcessSpec{Kind: traffic.PeriodicProcess, Interval: 50})
	withSpec.Scheme = Scheme{Kind: SelfTuned, KeepTrace: true}

	tuned := NewConfig()
	tc := core.DefaultTunerConfig(3072)
	tc.DecrementFraction = 0.02
	tuned.Scheme = Scheme{Kind: SelfTuned, Tuner: &tc, Estimator: core.LastValueEstimator, TuningPeriod: 96}

	exotic := NewConfig()
	exotic.Mode = router.Avoidance
	exotic.Selection = router.MostFreeVCs
	exotic.Switching = router.CutThrough
	exotic.BufDepth = exotic.PacketLength
	exotic.SidebandMechanism = sideband.Piggyback
	exotic.PiggybackP = 0.6
	exotic.DeliveryChannels = 2
	exotic.Pattern = traffic.Butterfly
	exotic.Scheme = Scheme{Kind: StaticGlobal, StaticThreshold: 250}

	busy := NewConfig()
	busy.Scheme = Scheme{Kind: BusyVC, BusyLimit: 2}

	return map[string]Config{
		"default":  NewConfig(),
		"schedule": withSpec,
		"tuned":    tuned,
		"exotic":   exotic,
		"busyvc":   busy,
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	for name, cfg := range jsonCases() {
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v\n%s", name, err, data)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("%s: round trip changed config:\n got %+v\nwant %+v", name, back, cfg)
		}
		fp1, err := cfg.Fingerprint()
		if err != nil {
			t.Fatalf("%s: fingerprint: %v", name, err)
		}
		fp2, err := back.Fingerprint()
		if err != nil {
			t.Fatalf("%s: fingerprint after round trip: %v", name, err)
		}
		if fp1 != fp2 {
			t.Errorf("%s: round trip changed fingerprint %s -> %s", name, fp1, fp2)
		}
		if len(fp1) != 64 {
			t.Errorf("%s: fingerprint %q is not hex sha-256", name, fp1)
		}
	}
}

func TestConfigJSONNamedEnums(t *testing.T) {
	cfg := jsonCases()["exotic"]
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"mode":"avoidance"`, `"selection":"mostfree"`, `"switching":"cutthrough"`,
		`"sideband_mechanism":"piggyback"`, `"pattern":"butterfly"`, `"kind":"static"`,
		`"version":1`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoding missing %s:\n%s", want, data)
		}
	}
}

func TestConfigJSONRejectsUnknownFields(t *testing.T) {
	cfg := NewConfig()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"k":`, `"typo_field":7,"k":`, 1)
	var back Config
	if err := json.Unmarshal([]byte(bad), &back); err == nil {
		t.Fatal("unknown field accepted")
	} else if !strings.Contains(err.Error(), "typo_field") {
		t.Errorf("error does not name the unknown field: %v", err)
	}
}

func TestConfigJSONRejectsBadVersion(t *testing.T) {
	for _, doc := range []string{
		`{"version":2,"k":8,"n":2,"vcs":3,"buf_depth":8,"packet_length":16,"mode":"recovery","sideband_hop_delay":2,"sideband_mechanism":"sideband","selection":"rotate","switching":"wormhole","scheme":{"kind":"base"},"warmup_cycles":1,"measure_cycles":1,"seed":1}`,
		`{"k":8}`, // version missing entirely
	} {
		var back Config
		if err := json.Unmarshal([]byte(doc), &back); err == nil {
			t.Errorf("bad version accepted: %s", doc)
		}
	}
}

func TestConfigJSONRejectsBadEnums(t *testing.T) {
	cfg := NewConfig()
	cfg.ShardDispatch = router.DispatchSharded // accepted and ignored, but its name is still checked
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, swap := range [][2]string{
		{`"mode":"recovery"`, `"mode":"hope"`},
		{`"selection":"rotate"`, `"selection":"spin"`},
		{`"switching":"wormhole"`, `"switching":"circuit"`},
		{`"sideband_mechanism":"sideband"`, `"sideband_mechanism":"telepathy"`},
		{`"kind":"base"`, `"kind":"magic"`},
		{`"shard_dispatch":"sharded"`, `"shard_dispatch":"turbo"`},
	} {
		bad := strings.Replace(string(data), swap[0], swap[1], 1)
		if bad == string(data) {
			t.Fatalf("encoding does not contain %s:\n%s", swap[0], data)
		}
		var back Config
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("bad enum accepted: %s", swap[1])
		}
	}
}

func TestConfigJSONRefusesInProcessValues(t *testing.T) {
	withSchedule := NewConfig()
	pat, err := traffic.NewPattern(traffic.UniformRandom, 256)
	if err != nil {
		t.Fatal(err)
	}
	withSchedule.Schedule = traffic.Steady(pat, traffic.Bernoulli{P: 0.01})
	if _, err := json.Marshal(withSchedule); err == nil {
		t.Error("live schedule marshaled")
	}
	if _, err := withSchedule.Fingerprint(); err == nil {
		t.Error("live schedule fingerprinted")
	}

	withCustom := NewConfig()
	withCustom.Scheme = Scheme{Kind: Custom, Custom: func(congestion.Env) (congestion.Controller, error) {
		return congestion.None{}, nil
	}}
	if _, err := json.Marshal(withCustom); err == nil {
		t.Error("custom controller factory marshaled")
	}
}

// TestConfigFingerprintSensitivity checks the content address actually
// covers the content: any field change moves the fingerprint, and equal
// configs built independently agree.
func TestConfigFingerprintSensitivity(t *testing.T) {
	base := NewConfig()
	fp := func(c Config) string {
		t.Helper()
		s, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	same := NewConfig()
	if fp(base) != fp(same) {
		t.Error("identical configs fingerprint differently")
	}
	muts := map[string]func(*Config){
		"k":       func(c *Config) { c.K = 8 },
		"rate":    func(c *Config) { c.Rate = 0.02 },
		"seed":    func(c *Config) { c.Seed = 2 },
		"scheme":  func(c *Config) { c.Scheme.Kind = SelfTuned },
		"mode":    func(c *Config) { c.Mode = router.Avoidance },
		"pattern": func(c *Config) { c.Pattern = traffic.Butterfly },
		"sample":  func(c *Config) { c.SampleInterval = 64 },
	}
	for name, mut := range muts {
		c := NewConfig()
		mut(&c)
		if fp(c) == fp(base) {
			t.Errorf("mutating %s does not change the fingerprint", name)
		}
	}
}

// TestScheduleSpecRunsLikeLiveSchedule pins the workload-resolution
// refactor: a config carrying a declarative spec must simulate exactly
// like the same config carrying the equivalent live schedule.
func TestScheduleSpecRunsLikeLiveSchedule(t *testing.T) {
	base := NewConfig()
	base.K, base.N = 4, 2
	base.WarmupCycles, base.MeasureCycles = 200, 1200
	base.SampleInterval = 128

	live := base
	pat, err := traffic.NewPattern(traffic.UniformRandom, 16)
	if err != nil {
		t.Fatal(err)
	}
	live.Schedule = traffic.Steady(pat, traffic.Periodic{Interval: 50})

	declarative := base
	declarative.ScheduleSpec = traffic.SteadySpec(traffic.UniformRandom,
		traffic.ProcessSpec{Kind: traffic.PeriodicProcess, Interval: 50})

	r1, err := Run(live)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(declarative)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("spec-driven run diverged from live-schedule run:\n%+v\n%+v", r1, r2)
	}
}
