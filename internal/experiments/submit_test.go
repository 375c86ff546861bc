package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseSubmissionRegistryRef(t *testing.T) {
	sub, err := ParseSubmission([]byte(`{"name":"fig4","scale":"paper"}`))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Name != "fig4" || sub.ScaleName != "paper" {
		t.Fatalf("sub = %+v, want fig4 at paper scale", sub)
	}
	if sub.Scale != Paper {
		t.Errorf("scale = %+v, want Paper", sub.Scale)
	}
	if sub.Spec == nil || sub.Spec.NumPoints() == 0 {
		t.Errorf("registry submission carries no grid metadata: %+v", sub.Spec)
	}
}

func TestParseSubmissionDefaultsScaleToQuick(t *testing.T) {
	sub, err := ParseSubmission([]byte(`{"name":"tab1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if sub.ScaleName != "quick" || sub.Scale != Quick {
		t.Fatalf("default scale = %q %+v, want quick", sub.ScaleName, sub.Scale)
	}
}

func TestParseSubmissionSpec(t *testing.T) {
	spec := NewSpec("mini", "one point")
	cfg := sim.NewConfig()
	cfg.K = 4
	spec.AddGroup("g", Point{Label: "p", Config: cfg})
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ParseSubmission(data)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Name != "" || sub.Spec.Name != "mini" || sub.Spec.NumPoints() != 1 {
		t.Fatalf("sub = %+v, want anonymous one-point spec", sub)
	}
}

func TestParseSubmissionBareConfig(t *testing.T) {
	cfg := sim.NewConfig()
	cfg.K = 4
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ParseSubmission(data)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Spec.NumPoints() != 1 {
		t.Fatalf("config submission wrapped into %d points, want 1", sub.Spec.NumPoints())
	}
	got := sub.Spec.Points()[0].Config
	if got.K != 4 {
		t.Errorf("wrapped config K = %d, want 4", got.K)
	}
}

func TestParseSubmissionErrors(t *testing.T) {
	cases := []struct {
		name, body, wantSubstr string
	}{
		{"not json", "nope", "JSON"},
		{"empty object", "{}", "unrecognized"},
		{"unknown experiment", `{"name":"fig99"}`, "unknown experiment"},
		{"unknown scale", `{"name":"fig4","scale":"galactic"}`, "scale"},
		{"extra ref field", `{"name":"fig4","bogus":1}`, "unknown field"},
		{"bad spec version", `{"version":99,"name":"x","groups":[]}`, "version"},
		{"invalid config", `{"version":1,"k":0}`, "k"},
		{"unknown config field", `{"version":1,"k":4,"bogus":true}`, "unknown"},
		// Each of these once panicked: the first while Validate built
		// the topology, the second when New sized the sample series.
		{"network past any slice", configWith(`"n":4611686018427387904`), "k^n"},
		{"hop delay overflows gather", configWith(`"sideband_hop_delay":2305843009213693952`), "sideband_hop_delay"},
		// Once ran, and reported 0 accepted traffic: no whole sample
		// interval fits the measured window [100, 500).
		{"sample interval longer than its window", configWith(`"measure_cycles":400,"sample_interval":1000`), "sample_interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSubmission([]byte(tc.body))
			if err == nil {
				t.Fatalf("ParseSubmission(%q) accepted", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("error %q, want substring %q", err, tc.wantSubstr)
			}
		})
	}
}

// configWith is a valid 4-ary 2-cube config body with field overriding
// the field of the same name (`"n":2`, say).
func configWith(field string) string {
	base := `{"version":1,"k":4,"n":2,"vcs":3,"buf_depth":8,"packet_length":16,"mode":"recovery",` +
		`"deadlock_timeout":160,"sideband_hop_delay":2,"sideband_mechanism":"sideband","selection":"rotate",` +
		`"switching":"wormhole","pattern":"random","rate":0.005,"scheme":{"kind":"base"},` +
		`"warmup_cycles":100,"measure_cycles":400,"seed":1}`
	name := field[:strings.Index(field, ":")+1]
	i := strings.Index(base, name)
	j := i + strings.IndexAny(base[i:], ",}")
	return base[:i] + field + base[j:]
}
