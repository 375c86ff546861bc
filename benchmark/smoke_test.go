package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the smoke test checks.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// TestSmoke runs all five workloads at tiny sizes, untraced and traced.
// Every run must pass its own checks — the traced sweep's digest equal
// to the untraced one, the traced engine's counters equal to the
// engine's, service hits byte-identical to their pre-fill results —
// and report exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for trace, want := range map[string][]metric{"0": m.EndToEnd, "1": m.PerLayer} {
		var out, errOut bytes.Buffer
		if code := realMain([]string{"-smoke", "-trace", trace, "-out", t.TempDir()}, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		results := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "FAILED") {
				t.Errorf("trace %s: %s", trace, line)
			}
			if !strings.HasPrefix(line, "{") {
				continue
			}
			results++
			var res jsonResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s: result %s", trace, line)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("trace %s: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
			}
			for _, mm := range want {
				if got, ok := res.Metrics[mm.Name]; !ok || got.Unit != mm.Unit {
					t.Errorf("trace %s: metric %s = %+v, want unit %q", trace, mm.Name, got, mm.Unit)
				}
			}
		}
		if results != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d", trace, results, len(workloads))
		}
	}
}
