package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/router"
	"repro/internal/sim"
)

// setupRepeats is how many times a cheap set-up is repeated; setup_s
// reports the median. The fig3 spec builds in about 50 µs; over eight
// runs, the median of 51 repetitions spread by 9% and that of 201 by 5%.
const setupRepeats = 201

// minWindows keeps the windowed quartiles honest: with 40 windows the
// upper quartile still has 10 windows beyond it.
const minWindows = 40

// singleRun is one long simulation, driven window by window through
// Engine.RunWithProgress. The first warmup cycles are not timed.
type singleRun struct {
	name           string
	config         func(seed int64, nproc int) sim.Config
	warmup, window int64 // cycles; warmup is a multiple of window
	windows        int64 // measured windows at the default -seconds
}

// paperTune is the paper's 16-ary 2-cube under the self-tuned scheme.
func paperTune(seed int64) sim.Config {
	cfg := sim.NewConfig()
	cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned}
	cfg.Seed = seed
	return cfg
}

var (
	// saturated runs deadlock avoidance: under recovery at twice the
	// knee, delivered packets over a 10 s run differ by a quarter
	// between seeds, which would drown every host-time metric.
	saturated = singleRun{
		name: "uniform-saturated",
		config: func(seed int64, _ int) sim.Config {
			cfg := paperTune(seed)
			cfg.Mode = router.Avoidance
			cfg.Rate = 0.06
			return cfg
		},
		warmup: 8192, window: 1024, windows: 47,
	}
	lowload = singleRun{
		name: "uniform-lowload",
		config: func(seed int64, _ int) sim.Config {
			cfg := paperTune(seed)
			cfg.Rate = 0.005
			return cfg
		},
		warmup: 8192, window: 4096, windows: 74,
	}
	// cube512 is ext12's 8-ary 3-cube, the largest network any registry
	// experiment builds and the only one router sharding can split.
	cube512 = singleRun{
		name: "cube512-sharded",
		config: func(seed int64, nproc int) sim.Config {
			cfg := paperTune(seed)
			cfg.K, cfg.N = 8, 3
			cfg.Rate = 0.05
			cfg.ShardWorkers = nproc
			return cfg
		},
		warmup: 2048, window: 256, windows: 42,
	}
)

// sizes returns the warm-up, window length and measured window count.
func (w singleRun) sizes(o options) (warmup, window, n int64) {
	if o.smoke {
		return 64, 32, minWindows
	}
	return w.warmup, w.window, max(minWindows, w.windows*int64(o.seconds)/defaultSeconds)
}

func (w singleRun) cfg(o options) sim.Config {
	cfg := w.config(o.seed, o.nproc)
	warmup, window, n := w.sizes(o)
	cfg.WarmupCycles, cfg.MeasureCycles = warmup, n*window
	return cfg
}

func (w singleRun) run(o options) (*report, error) {
	rep := newReport(w.name)
	_, _, err := w.measure(o, rep)
	return rep, err
}

// measure runs the workload with tracing off and records the end-to-end
// metrics. It returns the engine's result and the wall time of the
// whole run, set-up excluded, for the traced pass to compare against.
func (w singleRun) measure(o options, rep *report) (sim.Result, time.Duration, error) {
	cfg := w.cfg(o)
	warmup, window, n := w.sizes(o)
	probe := newHostProbe(1)
	var e *sim.Engine
	setupS, setupRaw, err := timeSetups(probe, setupRepeats, func() (time.Duration, error) {
		if e != nil {
			e.Close()
		}
		t0 := time.Now()
		next, err := sim.New(cfg)
		e = next
		return time.Since(t0), err
	})
	if err != nil {
		return sim.Result{}, 0, err
	}
	runtime.GC()

	// Each window's time is scaled by the host slowdown measured by the
	// probes on either side of it, taken in the progress callback, whose
	// time no window includes.
	rates := make([]float64, 0, n)
	rawRates := make([]float64, 0, n)
	windowMs := make([]float64, 0, n)
	var allocs0, allocs uint64
	var heap float64
	var wall, callbacks time.Duration
	var prevSlow float64
	start := time.Now()
	last := start
	res, err := e.RunWithProgress(window, func(now int64) {
		t := time.Now()
		slow := probe.sample()
		switch {
		case now == warmup:
			allocs0 = allocatedBytes()
		case now > warmup:
			secs := t.Sub(last).Seconds() * 2 / (prevSlow + slow)
			rawRates = append(rawRates, float64(window)/t.Sub(last).Seconds())
			rates = append(rates, float64(window)/secs)
			windowMs = append(windowMs, secs*1e3)
		}
		prevSlow = slow
		if now == cfg.TotalCycles() {
			wall = t.Sub(start) - callbacks
			allocs = allocatedBytes() - allocs0
			heap = liveHeapMB(probe) // the engine is still live here
		}
		last = time.Now()
		callbacks += last.Sub(t)
	})
	if err != nil {
		return sim.Result{}, 0, err
	}
	rep.attempted = int(n)

	rep.set("setup_s", setupS)
	rep.set("live_heap_mb", heap)
	rep.set("alloc_b_per_cycle", float64(allocs)/float64(n*window))
	s, err1 := summarize(rates)
	raw, err2 := summarize(rawRates)
	op, err3 := summarize(windowMs)
	if err := errors.Join(err1, err2, err3); err != nil {
		rep.fail("windows: %v", err)
	}
	rep.set("sim_cycles_per_s", s.P50)
	rep.set("op_p50_ms", op.P50)
	rep.note("sim_cycles_per_s over %d-cycle windows: %s; unscaled %s; host slowdown %.4g",
		window, s, raw, probe.slowdown(0))
	rep.note("op_ms (one %d-cycle window): %s", window, op)
	rep.note("setup_s unscaled %.4g", setupRaw)
	rep.note("simulated %d cycles (%d warm-up): created %d, injected %d, delivered %d, denials %d, recoveries %d, accepted %.4f flits/node/cycle",
		cfg.TotalCycles(), warmup, res.PacketsCreated, res.PacketsInjected, res.PacketsDelivered,
		res.ThrottleDenials, res.Recoveries, res.AcceptedFlits)

	if err := e.CheckInvariants(); err != nil {
		rep.fail("engine invariants: %v", err)
	}
	if inFlight := res.PacketsInjected - res.PacketsDelivered; inFlight != int64(e.Fabric().InFlight()) ||
		res.PacketsCreated < res.PacketsInjected || res.PacketsDelivered == 0 {
		rep.fail("packet accounting: created %d, injected %d, delivered %d, in flight %d",
			res.PacketsCreated, res.PacketsInjected, res.PacketsDelivered, e.Fabric().InFlight())
	}
	digest, err := digestOf(res)
	if err != nil {
		return sim.Result{}, 0, err
	}
	rep.checkDigest(o, digest)
	return res, wall, nil
}

// trace runs the untraced pass, then the same configuration through the
// traced engine, which must reproduce the engine's counters exactly.
func (w singleRun) trace(o options) (*report, error) {
	rep := newReport(w.name)
	res, untraced, err := w.measure(o, rep)
	if err != nil {
		return nil, err
	}
	te, err := newTracedEngine(w.cfg(o))
	if err != nil {
		return nil, err
	}
	runtime.GC() // both passes start from a collected heap
	t0 := time.Now()
	te.run()
	traced := time.Since(t0)
	rep.note("untraced run %.4g s, traced run %.4g s", untraced.Seconds(), traced.Seconds())

	if got, want := te.counts(), countsOf(res); got != want {
		rep.fail("traced engine diverged from sim.Engine: traced %+v, engine %+v", got, want)
	}
	if err := te.fab.CheckInvariants(); err != nil {
		rep.fail("traced fabric invariants: %v", err)
	}
	rep.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	tracedEngineMetrics(te, rep)

	path, err := te.rec.write(filepath.Join(o.outDir, "traces"), w.name, hostInfo(o.seed))
	if err != nil {
		return nil, err
	}
	rep.note("trace file %s", path)
	return rep, nil
}

// enginePhases are the traced engine's phase spans; their shares of the
// cycle span are per-layer metrics.
var enginePhases = []struct {
	span   int
	metric string
}{
	{spSideband, "sideband.tick_frac"},
	{spCongestion, "congestion.tick_frac"},
	{spGenerate, "traffic.generate_frac"},
	{spInject, "sim.inject_frac"},
	{spStep, "router.step_frac"},
	{spDeliver, "sim.deliver_frac"},
	{spSample, "sim.sample_frac"},
}

// tracedEngineMetrics derives the per-layer metrics of a finished
// traced run.
func tracedEngineMetrics(te *tracedEngine, rep *report) {
	r := te.rec
	cycles := float64(te.total)
	cycleNs := float64(r.sum(spCycle))
	phaseNs := int64(0)
	detail := "phase ns/cycle (share):"
	for _, p := range enginePhases {
		ns := r.sum(p.span)
		phaseNs += ns
		rep.set(p.metric, float64(ns)/cycleNs)
		detail += fmt.Sprintf(" %s %.0f (%.1f%%)", engineSpanNames[p.span], float64(ns)/cycles, 100*float64(ns)/cycleNs)
	}
	rep.note("%s", detail)
	unattributed := (cycleNs - float64(phaseNs)) / cycleNs
	rep.set("trace.unattributed_frac", unattributed)
	if unattributed > maxUnattributed {
		rep.fail("trace.unattributed_frac %.4f exceeds %.2f", unattributed, maxUnattributed)
	}
	rep.note("sim.cycle_ns mean %.0f over %d cycles", cycleNs/cycles, te.total)
	rep.percentiles("cycle span (ns):",
		quantile{"sim.cycle_ns_p50", te.cycleNs, 50}, quantile{"sim.cycle_ns_p99", te.cycleNs, 99})

	rep.set("traffic.packets_generated", float64(te.created))
	if d := te.denials + te.injected; d > 0 {
		rep.set("congestion.denial_ratio", float64(te.denials)/float64(d))
	}
	rep.set("congestion.throttled_cycle_frac", float64(te.throttledCycles)/cycles)
	rep.set("router.flits_per_cycle", float64(te.fab.DeliveredFlits())/cycles)
	rep.set("router.recoveries", float64(te.fab.Recoveries()))
	rep.set("router.full_buffers_avg", te.fullTotal/cycles)
	rep.set("stats.latency_samples", float64(te.netLatency.Count()))
}
