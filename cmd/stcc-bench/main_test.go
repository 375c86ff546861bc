package main

import "testing"

// TestCompareBaselineVerdicts pins the CI gate's verdicts, one fresh
// shape at a time, against a baseline at tolerance 0.5.
func TestCompareBaselineVerdicts(t *testing.T) {
	baseline := []Shape{
		{Name: "engine/low", NsPerOp: 1000},
		{Name: "engine/saturated", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 2},
	}
	cases := []struct {
		what  string
		fresh Shape
		want  int
	}{
		{"faster", Shape{Name: "engine/low", NsPerOp: 600}, 0},
		{"slower within tolerance", Shape{Name: "engine/low", NsPerOp: 1400}, 0},
		{"at the tolerance edge", Shape{Name: "engine/low", NsPerOp: 1500}, 0},
		{"ns/op past tolerance", Shape{Name: "engine/low", NsPerOp: 1501}, 1},
		{"allocs/op grew", Shape{Name: "engine/saturated", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 3}, 1},
		{"allocs/op fell", Shape{Name: "engine/saturated", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 1}, 0},
		{"bytes/op grew from zero", Shape{Name: "engine/low", NsPerOp: 1000, BytesPerOp: 1}, 1},
		{"bytes/op grew within tolerance", Shape{Name: "engine/saturated", NsPerOp: 1000, BytesPerOp: 150, AllocsPerOp: 2}, 0},
		{"bytes/op grew past tolerance", Shape{Name: "engine/saturated", NsPerOp: 1000, BytesPerOp: 151, AllocsPerOp: 2}, 1},
		{"missing from baseline", Shape{Name: "engine/new-shape", NsPerOp: 1e9, BytesPerOp: 1, AllocsPerOp: 1}, 0},
	}
	for _, c := range cases {
		if got := compareBaseline([]Shape{c.fresh}, baseline, 0.5); got != c.want {
			t.Errorf("%s: %d regressions, want %d", c.what, got, c.want)
		}
	}

	var fresh []Shape
	want := 0
	for _, c := range cases {
		fresh = append(fresh, c.fresh)
		want += c.want
	}
	if got := compareBaseline(fresh, baseline, 0.5); got != want {
		t.Errorf("all shapes at once: %d regressions, want %d (one per regressed shape)", got, want)
	}
}

// TestReportNameKeepsTrajectoryNames checks that the torus shapes keep
// the "/w1" names of the earlier serial-versus-sharded pairs, so fresh
// reports still diff against the checked-in trajectory; a shape whose
// name is missing from the baseline escapes the gate.
func TestReportNameKeepsTrajectoryNames(t *testing.T) {
	for _, c := range []struct{ kind, name, want string }{
		{"fabric", "torus4096-idle", "fabric/torus4096/idle/w1"},
		{"fabric", "torus4096-low", "fabric/torus4096/low/w1"},
		{"fabric", "torus4096-saturated", "fabric/torus4096/saturated/w1"},
		{"fabric", "low", "fabric/low"},
		{"engine", "aimd-saturated", "engine/aimd-saturated"},
		{"new", "idle", "new/idle"},
	} {
		if got := reportName(c.kind, c.name); got != c.want {
			t.Errorf("reportName(%q, %q) = %q, want %q", c.kind, c.name, got, c.want)
		}
	}
}
