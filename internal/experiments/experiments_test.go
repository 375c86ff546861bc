package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/sim"
)

// tiny is the smallest scale that still exercises every entry end to
// end (the 256-node network needs a few thousand cycles of signal).
var tiny = Scale{Warmup: 500, Measure: 2_500, BurstLow: 600, BurstHigh: 900}

var tinyRates = []float64{0.005, 0.02}

// runEntry executes a registry entry the way Entry.Run does — build the
// spec, run it, hand the results to the entry's formatter — but on a
// trimmed grid: only the points keep accepts survive (nil keeps all),
// and groups left empty are dropped. It returns the trimmed spec, its
// grouped results and the text report.
func runEntry(t *testing.T, r Runner, name string, s Scale, keep func(Point) bool) (*Spec, [][]sim.Result, string) {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	spec := e.Spec(s)
	if keep != nil {
		var groups []Group
		for _, g := range spec.Groups {
			var points []Point
			for _, p := range g.Points {
				if keep(p) {
					points = append(points, p)
				}
			}
			if len(points) > 0 {
				g.Points = points
				groups = append(groups, g)
			}
		}
		spec.Groups = groups
	}
	grouped, err := r.RunSpec(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	if err := e.Report(RunContext{Runner: r, Scale: s, Out: &out}, spec, grouped); err != nil {
		t.Fatalf("%s report: %v", name, err)
	}
	return spec, grouped, out.String()
}

// atRates keeps the points of a rate sweep whose offered load is one of
// rates.
func atRates(rates ...float64) func(Point) bool {
	return func(p Point) bool {
		for _, r := range rates {
			if p.Config.Rate == r {
				return true
			}
		}
		return false
	}
}

// reportLines counts the non-empty lines of a report.
func reportLines(report string) int {
	return len(strings.Split(strings.TrimSpace(report), "\n"))
}

// checkStudy runs a comparison study at scale s and checks it has want
// points and prints one row per point under its title and header.
func checkStudy(t *testing.T, name string, s Scale, want int) {
	t.Helper()
	spec, _, report := runEntry(t, Runner{}, name, s, nil)
	if n := spec.NumPoints(); n != want {
		t.Errorf("%s: %d points, want %d", name, n, want)
	}
	if n := reportLines(report); n != want+2 {
		t.Errorf("%s: report has %d lines, want %d:\n%s", name, n, want+2, report)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	want := map[[2]bool]core.Decision{
		{true, true}:   core.Decrement,
		{true, false}:  core.Decrement,
		{false, true}:  core.Increment,
		{false, false}: core.NoChange,
	}
	for cell, d := range want {
		if got := tuningDecision(cell[0], cell[1]); got != d {
			t.Errorf("drop=%v throttling=%v: decision %v, want %v", cell[0], cell[1], got, d)
		}
	}
	_, _, report := runEntry(t, Runner{}, "tab1", tiny, nil)
	if n := reportLines(report); n != 6 {
		t.Errorf("tab1 report has %d lines, want title + header + 4 cells:\n%s", n, report)
	}
}

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped, _ := runEntry(t, Runner{}, "fig1", tiny, atRates(tinyRates...))
	if len(spec.Groups) != 2 {
		t.Fatalf("curves = %d", len(spec.Groups))
	}
	for gi, g := range spec.Groups {
		if len(g.Points) != len(tinyRates) {
			t.Fatalf("%s: %d points", g.Name, len(g.Points))
		}
		for pi, r := range grouped[gi] {
			if r.AcceptedFlits <= 0 {
				t.Errorf("%s: zero throughput", g.Points[pi].Label)
			}
		}
	}
	// Butterfly saturates earlier than random: at the overload rate it
	// accepts less.
	random, butterfly := grouped[0][1], grouped[1][1]
	if butterfly.AcceptedFlits >= random.AcceptedFlits {
		t.Errorf("butterfly (%v) should saturate below random (%v)",
			butterfly.AcceptedFlits, random.AcceptedFlits)
	}
}

func TestFig2Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, grouped, _ := runEntry(t, Runner{}, "fig2", tiny, atRates(tinyRates...))
	pts := grouped[0]
	if len(pts) != len(tinyRates) {
		t.Fatal("wrong point count")
	}
	if pts[1].AvgFullBuffers <= pts[0].AvgFullBuffers {
		t.Errorf("full buffers should rise with load: %v then %v", pts[0].AvgFullBuffers, pts[1].AvgFullBuffers)
	}
}

// The fig3 formatter splits the merged two-mode grid back into one
// table per deadlock mode, each with curves named after the schemes.
func TestFig3CurveNames(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, _, report := runEntry(t, Runner{}, "fig3", tiny, atRates(0.005))
	var titles, names []string
	for _, line := range strings.Split(report, "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "fig3: "):
			titles = append(titles, line)
		case len(f) == 6 && f[0] != "curve":
			names = append(names, f[0])
		}
	}
	if want := []string{"fig3: overall performance, recovery", "fig3: overall performance, avoidance"}; !reflect.DeepEqual(titles, want) {
		t.Errorf("tables %q, want %q", titles, want)
	}
	if want := []string{"base", "alo", "tune", "base", "alo", "tune"}; !reflect.DeepEqual(names, want) {
		t.Errorf("curve rows %q, want %q", names, want)
	}
}

func TestFig4TracesDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped, report := runEntry(t, Runner{}, "fig4", Scale{Warmup: 0, Measure: 6_000}, nil)
	points := spec.Groups[0].Points
	if len(points) != 2 {
		t.Fatalf("traces = %d", len(points))
	}
	if points[0].Label != "tune-hillclimb" || points[1].Label != "tune" {
		t.Errorf("trace names: %s, %s", points[0].Label, points[1].Label)
	}
	for i, p := range points {
		trace := grouped[0][i].ThresholdTrace
		if len(trace) == 0 {
			t.Fatalf("%s: empty trace", p.Label)
		}
		if want := fmt.Sprintf("fig4 trace %s: %d periods", p.Label, len(trace)); !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestFig5CurveCount(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, _, _ := runEntry(t, Runner{}, "fig5", tiny, atRates(0.02))
	if len(spec.Groups) != 8 { // 2 patterns x 4 schemes
		t.Fatalf("curves = %d", len(spec.Groups))
	}
}

func TestFig6Schedule(t *testing.T) {
	sched, err := burstySchedule(tiny).Build(256)
	if err != nil {
		t.Fatal(err)
	}
	phases := sched.Phases
	if len(phases) != 9 {
		t.Fatalf("phases = %d", len(phases))
	}
	if phases[0].Pattern.Name() != "random" || phases[7].Pattern.Name() != "butterfly" {
		t.Errorf("burst order wrong: %s ... %s", phases[0].Pattern.Name(), phases[7].Pattern.Name())
	}
	if phases[1].Process.Rate() <= phases[0].Process.Rate() {
		t.Error("bursts should be higher load")
	}
	_, _, report := runEntry(t, Runner{}, "fig6", tiny, nil)
	lines := strings.Split(strings.TrimSpace(report), "\n")
	if len(lines) != 2+len(phases) {
		t.Fatalf("fig6 report has %d lines, want title + header + %d phases:\n%s", len(lines), len(phases), report)
	}
	if end := strings.Fields(lines[len(lines)-1])[1]; end != fmt.Sprint(sched.TotalDuration()) {
		t.Errorf("last phase ends at %s, schedule lasts %d", end, sched.TotalDuration())
	}
}

func TestFig7SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec, grouped, report := runEntry(t, Runner{}, "fig7", tiny,
		func(p Point) bool { return p.Config.Mode == router.Recovery })
	if n := spec.NumPoints(); n != 3 {
		t.Fatalf("series = %d", n)
	}
	for i, p := range spec.Groups[0].Points {
		if len(grouped[0][i].Throughput.Values) == 0 {
			t.Fatalf("%s: empty series", p.Label)
		}
	}
	if !strings.Contains(report, "fig7 (recovery):") || strings.Count(report, " samples\n") != 3 {
		t.Errorf("fig7 report:\n%s", report)
	}
}

func TestExtDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkStudy(t, "ext1", tiny, 2)
	checkStudy(t, "ext4", tiny, 2)
}

func TestPrintAndCSVFormats(t *testing.T) {
	curves := []Curve{{Name: "x", Points: []RatePoint{{Rate: 0.01, Accepted: 0.2, Latency: 55, Recov: 3, Full: 12}}}}
	var buf bytes.Buffer
	PrintCurves(&buf, "title", curves)
	if !strings.Contains(buf.String(), "title") || !strings.Contains(buf.String(), "0.0100") {
		t.Errorf("print output: %q", buf.String())
	}
	rows := curveRows(curves)
	if want := []string{"x", "0.01", "0.2", "55", "3", "12"}; len(rows) != 2 || !reflect.DeepEqual(rows[1], want) {
		t.Errorf("csv rows: %q", rows)
	}
	dir := t.TempDir()
	if err := (RunContext{CSVDir: dir}).csv("c.csv", rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "c.csv"))
	if want := "curve,rate,accepted_flits_per_node_cycle,avg_network_latency_cycles,recoveries,mean_full_buffers\nx,0.01,0.2,55,3,12\n"; err != nil || string(data) != want {
		t.Errorf("csv file = %q (%v), want %q", data, err, want)
	}
	buf.Reset()
	spec := NewSpec("s", "t")
	spec.AddGroup("g", Point{Label: "p"})
	PrintSpecResults(&buf, spec, [][]sim.Result{{{AcceptedFlits: 1, AvgNetworkLatency: 2, Recoveries: 3}}})
	if !strings.Contains(buf.String(), "s: t") || !strings.Contains(buf.String(), "-- g") {
		t.Errorf("spec results: %q", buf.String())
	}
}

func TestExtensionDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkStudy(t, "ext5", tiny, 4)
	checkStudy(t, "ext6", tiny, 3)
	checkStudy(t, "ext7", tiny, 3)
	checkStudy(t, "ext8", tiny, 3)
	if spec, _, _ := runEntry(t, Runner{}, "ext9", tiny, atRates(0.02)); len(spec.Groups) != 8 {
		t.Errorf("ext9: %d curves", len(spec.Groups))
	}
}

// The Section 4.1 ablations at a shorter scale.
func TestExtensionDriversDefaultRates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkStudy(t, "ext2", Scale{Warmup: 200, Measure: 1_000}, 5)
	checkStudy(t, "ext3", Scale{Warmup: 200, Measure: 1_000}, 5)
}

func TestExt10Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkStudy(t, "ext10", tiny, 4)
}

func TestExt11And12Drivers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkStudy(t, "ext11", tiny, 4)
	checkStudy(t, "ext12", Scale{Warmup: 200, Measure: 1_000}, 2)
}
