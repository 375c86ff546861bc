package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sim"
)

// tinySpec returns a fast two-group spec for execution tests.
func tinySpec() *Spec {
	s := Scale{Warmup: 100, Measure: 400, BurstLow: 100, BurstHigh: 100}
	mk := func(rate float64) sim.Config {
		cfg := baseConfig(s)
		cfg.K = 4
		cfg.Rate = rate
		return cfg
	}
	spec := NewSpec("tiny", "test spec")
	spec.AddGroup("a", Point{Label: "a1", Config: mk(0.005)}, Point{Label: "a2", Config: mk(0.01)})
	spec.AddGroup("b", Point{Label: "b1", Config: mk(0.02)})
	return spec
}

func TestRegistryCoversPaperOrder(t *testing.T) {
	names := Names()
	if len(names) != len(PaperOrder) {
		t.Fatalf("registry has %d entries, PaperOrder has %d", len(names), len(PaperOrder))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, name := range PaperOrder {
		if _, ok := Lookup(name); !ok {
			t.Errorf("PaperOrder entry %q not in registry", name)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

// Every registry spec must validate and round-trip through JSON with an
// unchanged fingerprint, at both scales. This is the one check that a
// sim.Config wire-form change keeps every registry spec parseable.
func TestRegistrySpecsRoundTrip(t *testing.T) {
	for _, scaleName := range []string{"quick", "paper"} {
		scale, err := ParseScale(scaleName)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Names() {
			e, _ := Lookup(name)
			spec := e.Spec(scale)
			where := name + " (" + scaleName + ")"
			if err := spec.Validate(); err != nil {
				t.Errorf("%s: spec invalid: %v", where, err)
				continue
			}
			want, err := spec.Fingerprint()
			if err != nil {
				t.Errorf("%s: fingerprint: %v", where, err)
				continue
			}
			data, err := json.Marshal(spec)
			if err != nil {
				t.Errorf("%s: marshal: %v", where, err)
				continue
			}
			parsed, err := ParseSpec(data)
			if err != nil {
				t.Errorf("%s: parse: %v", where, err)
				continue
			}
			got, err := parsed.Fingerprint()
			if err != nil {
				t.Errorf("%s: reparsed fingerprint: %v", where, err)
				continue
			}
			if got != want {
				t.Errorf("%s: fingerprint changed across round trip: %s != %s", where, got, want)
			}
			if !reflect.DeepEqual(parsed, spec) {
				t.Errorf("%s: round-tripped spec differs", where)
			}
		}
	}
}

// TestRegistrySpellsNoDefault fails when a registry point sets a scheme
// field to the value its kind resolves when the field is unset: such a
// point is the same simulation as its twin without the field, filed
// under a second fingerprint. Each default is read from its owner.
func TestRegistrySpellsNoDefault(t *testing.T) {
	for _, sc := range []struct {
		name string
		s    Scale
	}{{"quick", Quick}, {"paper", Paper}} {
		points, fps := 0, map[string]bool{}
		for _, name := range Names() {
			e, _ := Lookup(name)
			for _, pt := range e.Spec(sc.s).Points() {
				points++
				cfg, s := pt.Config, pt.Config.Scheme
				// Validation holds a tuner's avoid_local_maxima to its kind.
				tuner := core.DefaultTunerConfig(cfg.TotalBuffers())
				if s.Tuner != nil {
					tuner.AvoidLocalMaxima = s.Tuner.AvoidLocalMaxima
				}
				for field, spelled := range map[string]bool{
					"estimator":     s.Estimator == sim.LinearEstimator,
					"tuning_period": s.TuningPeriod == core.DefaultTuningPeriod(cfg.GatherDuration()),
					"tuner":         s.Tuner != nil && *s.Tuner == tuner,
				} {
					if spelled {
						t.Errorf("%s (%s) point %q spells the default %s", name, sc.name, pt.Label, field)
					}
				}
				fp, err := cfg.Fingerprint()
				if err != nil {
					t.Fatalf("%s (%s) point %q: %v", name, sc.name, pt.Label, err)
				}
				fps[fp] = true
			}
		}
		t.Logf("%s scale: %d registry points, %d distinct fingerprints", sc.name, points, len(fps))
	}
}

func TestRegistryEntryMetadata(t *testing.T) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		if e.Name != name {
			t.Errorf("entry %q has Name %q", name, e.Name)
		}
		if e.Title == "" || e.About == "" {
			t.Errorf("entry %q missing Title or About", name)
		}
		if e.Spec == nil || e.Report == nil {
			t.Errorf("entry %q missing Spec or Report", name)
		}
		if spec := e.Spec(Quick); spec.Name != name {
			t.Errorf("entry %q builds spec named %q", name, spec.Name)
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	spec := tinySpec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(data); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := map[string]string{
		"unknown-top-field":   `{"version":1,"name":"x","bogus":true,"groups":[]}`,
		"unknown-point-field": `{"version":1,"name":"x","groups":[{"points":[{"label":"p","bogus":1,"config":{}}]}]}`,
		"wrong-version":       `{"version":2,"name":"x","groups":[]}`,
		"missing-name":        `{"version":1,"groups":[]}`,
		"not-json":            `{"version":`,
	}
	for name, raw := range cases {
		if _, err := ParseSpec([]byte(raw)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", name, raw)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	spec := tinySpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	bad := tinySpec()
	bad.Groups[1].Points[0].Config.K = 1
	err := bad.Validate()
	if err == nil {
		t.Fatal("spec with invalid point config validated")
	}
	if !strings.Contains(err.Error(), "b1") {
		t.Errorf("error %q does not name the offending point label", err)
	}
}

func TestSpecPointsFlattening(t *testing.T) {
	spec := tinySpec()
	if n := spec.NumPoints(); n != 3 {
		t.Fatalf("NumPoints = %d, want 3", n)
	}
	var labels []string
	for _, p := range spec.Points() {
		labels = append(labels, p.Label)
	}
	if !reflect.DeepEqual(labels, []string{"a1", "a2", "b1"}) {
		t.Fatalf("Points() order = %v", labels)
	}
}

// RunSpec must return results grouped exactly as the spec's groups, and
// each result must match running the point's config directly.
func TestRunSpecGrouping(t *testing.T) {
	spec := tinySpec()
	grouped, err := Runner{}.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != len(spec.Groups) {
		t.Fatalf("got %d groups, want %d", len(grouped), len(spec.Groups))
	}
	for gi, g := range spec.Groups {
		if len(grouped[gi]) != len(g.Points) {
			t.Fatalf("group %d: got %d results, want %d", gi, len(grouped[gi]), len(g.Points))
		}
	}
	direct, err := sim.Run(spec.Groups[1].Points[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grouped[1][0], direct) {
		t.Error("RunSpec result differs from direct sim.Run of the same config")
	}
}

// A failing point's error must carry the spec name and point label.
func TestRunSpecErrorContext(t *testing.T) {
	spec := tinySpec()
	spec.Groups[0].Points[1].Config.VCs = 0
	_, err := Runner{}.RunSpec(spec)
	if err == nil {
		t.Fatal("RunSpec succeeded on invalid point")
	}
	for _, want := range []string{"tiny", "a2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// The merged fig3/fig7 specs must still carry every per-mode point.
func TestMergedModeSpecs(t *testing.T) {
	for name, wantPer := range map[string]int{"fig3": 3 * len(DefaultRates), "fig7": 3} {
		e, _ := Lookup(name)
		spec := e.Spec(Quick)
		if got := spec.NumPoints(); got != 2*wantPer {
			t.Errorf("%s spec has %d points, want %d (both deadlock modes)", name, got, 2*wantPer)
		}
	}
	e, _ := Lookup("fig3")
	spec := e.Spec(Quick)
	var modes []router.DeadlockMode
	for _, g := range spec.Groups {
		modes = append(modes, g.Points[0].Config.Mode)
	}
	seen := map[router.DeadlockMode]bool{}
	for _, m := range modes {
		seen[m] = true
	}
	if !seen[router.Recovery] || !seen[router.Avoidance] {
		t.Errorf("fig3 merged spec missing a deadlock mode: %v", modes)
	}
}
