package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// sweepScale is the fig3 run length per point. The 48 points span idle
// to twice the knee, so one pass exercises every load regime; a pass
// is short enough that a run holds several.
var sweepScale = experiments.Scale{Warmup: 500, Measure: 1000}

// sweepPasses is how many times the sweep runs at the default length;
// one pass takes about three seconds on a quiet 2-CPU host.
const sweepPasses = 3

// sweepSpec builds the registry's fig3 grid with every point's seed set
// from the workload seed, and validates it.
func sweepSpec(o options) (*experiments.Spec, error) {
	entry, ok := experiments.Lookup("fig3")
	if !ok {
		return nil, fmt.Errorf("registry has no fig3")
	}
	scale := sweepScale
	if o.smoke {
		scale = experiments.Scale{Warmup: 50, Measure: 100}
	}
	spec := entry.Spec(scale)
	for gi := range spec.Groups {
		for pi := range spec.Groups[gi].Points {
			spec.Groups[gi].Points[pi].Config.Seed = o.seed
		}
	}
	return spec, spec.Validate()
}

func runSweep(o options) (*report, error) {
	rep := newReport("fig3-sweep")
	_, _, _, err := measureSweep(o, rep)
	return rep, err
}

// measureSweep runs the sweep through Runner.RunSpec with no cache and
// records the end-to-end metrics. It returns the spec, the median pass
// wall time and the results' digest for the traced pass.
func measureSweep(o options, rep *report) (*experiments.Spec, time.Duration, string, error) {
	probe := newHostProbe(o.nproc)
	var spec *experiments.Spec
	setupS, setupRaw, err := timeSetups(probe, setupRepeats, func() (time.Duration, error) {
		t0 := time.Now()
		s, err := sweepSpec(o)
		spec = s
		return time.Since(t0), err
	})
	if err != nil {
		return nil, 0, "", err
	}
	points := spec.Points()
	var cycles int64
	for _, p := range points {
		cycles += p.Config.TotalCycles()
	}

	// Each worker probes the host after every point it finishes, so a
	// pass is scaled by samples spread over its whole length. A sample
	// counts only its own thread's CPU time, and its 1 MB table stays in
	// the worker's private cache, so the point simulating on the other
	// CPU does not slow it. The samples' wall time, shared between the
	// workers, is taken out of the pass's time.
	workers := min(o.nproc, len(points))
	runner := experiments.Runner{Workers: workers, OnPoint: func(experiments.PointEvent) { probe.sample() }}
	passes := 1
	if !o.smoke {
		passes = max(sweepPasses, sweepPasses*o.seconds/defaultSeconds)
	}
	walls := make([]float64, passes)
	passMs := make([]float64, passes)
	rates := make([]float64, passes)
	var grouped [][]sim.Result
	var digest string
	runtime.GC()
	allocs0 := allocatedBytes()
	for i := range walls {
		from, spent := probe.mark()
		t0 := time.Now()
		g, err := runner.RunSpec(spec)
		wall := time.Since(t0)
		if err != nil {
			return nil, 0, "", err
		}
		_, spentAfter := probe.mark()
		wall -= (spentAfter - spent) / time.Duration(workers)
		scaled := wall.Seconds() / probe.slowdown(from)
		walls[i], passMs[i], rates[i] = wall.Seconds(), scaled*1e3, float64(cycles)/scaled
		d, err := digestOf(g)
		if err != nil {
			return nil, 0, "", err
		}
		if i > 0 && d != digest {
			rep.fail("pass %d digest %s differs from pass 0's %s", i, d, digest)
		}
		grouped, digest = g, d
	}
	allocs := allocatedBytes() - allocs0
	rep.attempted = passes * len(points)

	rep.set("setup_s", setupS)
	rep.set("sim_cycles_per_s", median(rates))
	rep.set("op_p50_ms", median(passMs))
	rep.set("live_heap_mb", liveHeapMB(probe)) // with the grouped results held
	rep.set("alloc_b_per_cycle", float64(allocs)/float64(int64(passes)*cycles))
	rep.note("op_ms (one pass of %d points, %d simulated cycles, %d workers, i.e. sweep_s in ms): passes %.5g; unscaled %.5g",
		len(points), cycles, workers, passMs, walls)
	rep.note("unscaled sim_cycles_per_s %.6g, setup_s %.4g; host slowdown %.4g",
		float64(cycles)/median(walls), setupRaw, probe.slowdown(0))
	checkSweep(rep, grouped)
	rep.checkDigest(o, digest)
	runtime.KeepAlive(grouped)
	return spec, time.Duration(median(walls) * float64(time.Second)), digest, nil
}

// checkSweep fails every point whose packet accounting is inconsistent.
func checkSweep(rep *report, grouped [][]sim.Result) {
	for gi, g := range grouped {
		for pi, r := range g {
			if r.PacketsCreated < r.PacketsInjected || r.PacketsInjected < r.PacketsDelivered || r.PacketsDelivered == 0 {
				rep.fail("group %d point %d: created %d, injected %d, delivered %d",
					gi, pi, r.PacketsCreated, r.PacketsInjected, r.PacketsDelivered)
			}
		}
	}
}

// Span names of the traced sweep.
const (
	spPoint = iota
	spPointNew
	spPointRun
)

// traceSweep runs the same points through Runner.ForEach, timing
// sim.New and Engine.RunContext per point. The regrouped results must
// hash to the untraced digest.
func traceSweep(o options) (*report, error) {
	rep := newReport("fig3-sweep")
	spec, untraced, want, err := measureSweep(o, rep)
	if err != nil {
		return nil, err
	}
	points := spec.Points()
	results := make([]sim.Result, len(points))
	setupMs := make([]float64, len(points))
	runS := make([]float64, len(points))
	rec := newRecorder("experiments.point", "sim.new", "sim.run")
	var mu sync.Mutex
	start := rec.now()
	err = experiments.Runner{Workers: o.nproc}.ForEach(len(points), func(i int) error {
		t0 := rec.now()
		e, err := sim.New(points[i].Config)
		t1 := rec.now()
		if err != nil {
			return err
		}
		res, err := e.RunContext(context.Background(), 0, nil)
		t2 := rec.now()
		if err != nil {
			return err
		}
		results[i] = res
		setupMs[i], runS[i] = float64(t1-t0)/1e6, float64(t2-t1)/1e9
		mu.Lock()
		defer mu.Unlock()
		rec.observe(spPoint, t0, t2)
		rec.observe(spPointNew, t0, t1)
		rec.observe(spPointRun, t1, t2)
		id := rec.keep(spPoint, -1, t0, t2)
		rec.keep(spPointNew, id, t0, t1)
		rec.keep(spPointRun, id, t1, t2)
		return nil
	})
	wall := rec.now() - start
	if err != nil {
		return nil, err
	}

	grouped := make([][]sim.Result, len(spec.Groups))
	at := 0
	for gi, g := range spec.Groups {
		grouped[gi] = results[at : at+len(g.Points)]
		at += len(g.Points)
	}
	if got, err := digestOf(grouped); err != nil {
		return nil, err
	} else if got != want {
		rep.fail("traced sweep digest %s, untraced %s", got, want)
	}

	busy := float64(min(o.nproc, len(points))) * float64(wall)
	pointNs := float64(rec.sum(spPoint))
	rep.set("experiments.setup_frac", float64(rec.sum(spPointNew))/busy)
	rep.set("experiments.run_frac", float64(rec.sum(spPointRun))/busy)
	rep.set("experiments.idle_frac", 1-pointNs/busy)
	rep.set("trace.unattributed_frac", (pointNs-float64(rec.sum(spPointNew)+rec.sum(spPointRun)))/pointNs)
	rep.set("trace.overhead_frac", float64(wall)/float64(untraced)-1)
	maxRun := 0.0
	for _, s := range runS {
		maxRun = max(maxRun, s)
	}
	rep.percentiles(fmt.Sprintf("points (%d, slowest run %.4g s):", len(points), maxRun),
		quantile{"experiments.point_setup_ms_p50", setupMs, 50},
		quantile{"experiments.point_run_s_p50", runS, 50})

	path, err := rec.write(filepath.Join(o.outDir, "traces"), "fig3-sweep", hostInfo(o.seed))
	if err != nil {
		return nil, err
	}
	rep.note("trace file %s", path)
	return rep, nil
}
