package main

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/router"
	"repro/internal/sim"
)

// pinConfig is tune on an 8-ary 2-cube, loaded well past its knee so
// throttle denials and (under recovery) deadlock recoveries occur.
func pinConfig(mode router.DeadlockMode, workers int) sim.Config {
	cfg := paperTune(7)
	cfg.K = 8
	cfg.Mode = mode
	cfg.Rate = 0.08
	cfg.WarmupCycles, cfg.MeasureCycles = 1000, 3000
	cfg.ShardWorkers = workers
	return cfg
}

// TestTracedEngineMatchesEngine pins the traced engine to sim.Engine:
// for the same configuration every counter the benchmark gates on must
// be identical, and the phase spans must explain the cycle span.
func TestTracedEngineMatchesEngine(t *testing.T) {
	for _, mode := range []router.DeadlockMode{router.Recovery, router.Avoidance} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/w%d", mode, workers), func(t *testing.T) {
				cfg := pinConfig(mode, workers)
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				te, err := newTracedEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				te.run()
				if got, want := te.counts(), countsOf(res); got != want {
					t.Fatalf("traced %+v\nengine %+v", got, want)
				}
				if res.ThrottleDenials == 0 {
					t.Error("workload never throttled; the pin would not cover injection denials")
				}
				if mode == router.Recovery && res.Recoveries == 0 {
					t.Error("workload never recovered from a deadlock")
				}
				if err := te.fab.CheckInvariants(); err != nil {
					t.Error(err)
				}
				rep := newReport("pin")
				tracedEngineMetrics(te, rep)
				if u := rep.values["trace.unattributed_frac"]; u < 0 || u > maxUnattributed {
					t.Errorf("trace.unattributed_frac = %.4f, want within [0, %.2f]", u, maxUnattributed)
				}
				if len(rep.problems) > 0 {
					t.Error(rep.problems)
				}
			})
		}
	}
}

// TestTracedEngineKeepsMidRunSpans checks the raw spans: the kept cycles
// sit in the middle of the run and every phase span nests in its cycle.
func TestTracedEngineKeepsMidRunSpans(t *testing.T) {
	te, err := newTracedEngine(pinConfig(router.Recovery, 1))
	if err != nil {
		t.Fatal(err)
	}
	te.run()
	raw := te.rec.raw
	cycles := 0
	for _, s := range raw {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			cycles++
			if s.Name != "sim.cycle" {
				t.Fatalf("root span %+v is not a cycle", s)
			}
			continue
		}
		p := raw[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %+v escapes its parent %+v", s, p)
		}
	}
	if cycles != rawCycles {
		t.Errorf("kept %d cycles, want %d", cycles, rawCycles)
	}
	if got := te.rec.hists[spCycle].Count; got != te.total {
		t.Errorf("cycle histogram holds %d spans, want %d", got, te.total)
	}
}

func TestTracedEngineRejectsNotification(t *testing.T) {
	cfg := pinConfig(router.Recovery, 1)
	cfg.Scheme = sim.Scheme{Kind: sim.Notify}
	if _, err := newTracedEngine(cfg); !errors.Is(err, errNotificationController) {
		t.Fatalf("notify controller: err = %v, want %v", err, errNotificationController)
	}
}
