package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 32} {
		r := Runner{Workers: workers}
		const n = 100
		var counts [n]int32
		if err := r.ForEach(n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// A one-point ForEach starts one worker and no dispatcher: workers take
// indices from a counter, not from a channel fed by a goroutine, which
// cost two more allocations per call (10 in all).
func TestForEachOnePointAllocs(t *testing.T) {
	r := Runner{Workers: 1}
	fn := func(int) error { return nil }
	if avg := testing.AllocsPerRun(200, func() { r.ForEach(1, fn) }); avg > 8 {
		t.Errorf("a one-point ForEach made %.1f allocations, want at most 8", avg)
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := (Runner{Workers: 4}).ForEach(0, func(int) error {
		t.Fatal("fn called for empty grid")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestForEachReturnsLowestIndexError checks the advertised determinism of
// error selection: no matter the worker count, the reported error is the
// lowest-index failure among the jobs that ran.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	sentinel := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 2, 8} {
		r := Runner{Workers: workers}
		err := r.ForEach(50, func(i int) error {
			if i == 3 || i == 40 {
				return sentinel(i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3 failed", workers, err)
		}
	}
}

// TestForEachCancelsAfterError checks that a failure stops dispatching
// not-yet-started jobs: with one extra worker, a long tail of jobs after
// an early error should be mostly skipped. Jobs park on the shared
// context, so dispatch is provably cancelled rather than drained — and
// unlike parking on a test-owned channel, the park always ends. (The
// previous version of this test parked on a channel only closed after
// ForEach returned, which deadlocked whenever the second worker dequeued
// a job before the cancellation landed.)
func TestForEachCancelsAfterError(t *testing.T) {
	var started int32
	err := Runner{Workers: 2}.forEach(1000, func(ctx context.Context, _ *sim.Slot, i int) error {
		atomic.AddInt32(&started, 1)
		if i == 0 {
			return errors.New("boom")
		}
		<-ctx.Done()
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&started); n > 10 {
		t.Errorf("%d jobs started after early failure; cancellation not effective", n)
	}
}

// TestForEachCanceledSiblingDoesNotMaskError pins the root-cause rule
// deterministically: index 0 runs until the shared context is canceled
// and then reports that cancellation, while index 1 fails for a real
// reason. The real error must win even though index 0 is lower. With
// two workers both jobs are always running when index 1 fails: the
// dispatcher hands out index 1 only after index 0 is taken, and index 0
// cannot finish before the cancellation.
func TestForEachCanceledSiblingDoesNotMaskError(t *testing.T) {
	invalid := errors.New("point 1: invalid config")
	err := Runner{Workers: 2}.forEach(2, func(ctx context.Context, _ *sim.Slot, i int) error {
		if i == 1 {
			return invalid
		}
		<-ctx.Done()
		return fmt.Errorf("point 0: %w", ctx.Err())
	})
	if err != invalid {
		t.Fatalf("err = %v, want %v", err, invalid)
	}
}

// When the caller cancels, the cancellation is reported even if a job
// also failed for another reason on the way down.
func TestForEachReportsCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Runner{Workers: 2, Ctx: ctx}.forEach(2, func(jobCtx context.Context, _ *sim.Slot, i int) error {
		if i == 1 {
			cancel()
			return errors.New("write failed during shutdown")
		}
		<-jobCtx.Done()
		return jobCtx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunnerDeterminism is the headline regression test for the parallel
// sweep runner: an entry's grid must produce byte-identical results and
// reports no matter how many workers execute it. fig1 covers the plain
// rate grid; fig5 covers the widest scheme x pattern grid including the
// global self-tuned controller.
func TestRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, tc := range []struct {
		name  string
		rates []float64
	}{{"fig1", tinyRates}, {"fig5", []float64{0.02}}} {
		_, serial, serialReport := runEntry(t, Runner{Workers: 1}, tc.name, tiny, atRates(tc.rates...))
		_, wide, wideReport := runEntry(t, Runner{Workers: 8}, tc.name, tiny, atRates(tc.rates...))
		ja, _ := json.Marshal(serial)
		jb, _ := json.Marshal(wide)
		if string(ja) != string(jb) {
			t.Errorf("%s: workers=1 and workers=8 results differ:\n%s\n%s", tc.name, ja, jb)
		}
		if serialReport != wideReport {
			t.Errorf("%s: workers=1 and workers=8 reports differ:\n%s\n%s", tc.name, serialReport, wideReport)
		}
	}
}

// fastConfig is a sub-second serializable configuration.
func fastConfig(seed int64) sim.Config {
	cfg := sim.NewConfig()
	cfg.K = 4
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Rate = 0.005
	cfg.Seed = seed
	return cfg
}

// slowConfig runs long enough that a test can cancel it mid-flight; the
// engine polls its context between cycles, so the run still unwinds in
// well under a second.
func slowConfig() sim.Config {
	cfg := fastConfig(1)
	cfg.MeasureCycles = 200_000_000
	return cfg
}

// A runner whose context is already canceled runs nothing, on both the
// serial and the parallel path.
func TestRunnerPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := Runner{Workers: workers, Ctx: ctx}.ForEach(8, func(i int) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran {
			t.Errorf("Workers=%d: fn ran under a canceled context", workers)
		}
	}
}

// Canceling the runner's context mid-grid aborts the in-flight
// simulation between cycles and surfaces the cancellation.
func TestRunnerCancelMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := NewSpec("cancel-test", "")
	spec.AddGroup("", Point{Label: "slow", Config: slowConfig()})

	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Runner{Workers: 1, Ctx: ctx}.RunSpec(spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSpec err = %v, want context.Canceled", err)
	}
	// The slow configuration takes minutes to finish; unwinding fast
	// proves the engine polled the context instead of running to
	// completion.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s, want prompt unwind", elapsed)
	}
}

// OnPoint observes every completed point with its label, index, and
// cache provenance.
func TestRunnerOnPointEvents(t *testing.T) {
	spec := NewSpec("events-test", "")
	spec.AddGroup("g", Point{Label: "a", Config: fastConfig(1)}, Point{Label: "b", Config: fastConfig(2)})

	var mu sync.Mutex
	byLabel := make(map[string]PointEvent)
	_, err := Runner{Workers: 2, OnPoint: func(ev PointEvent) {
		mu.Lock()
		byLabel[ev.Label] = ev
		mu.Unlock()
	}}.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(byLabel) != 2 {
		t.Fatalf("observed %d events, want 2: %v", len(byLabel), byLabel)
	}
	for i, label := range []string{"a", "b"} {
		ev, ok := byLabel[label]
		if !ok {
			t.Fatalf("no event for label %q", label)
		}
		if ev.Index != i || ev.Total != 2 || ev.CacheHit {
			t.Errorf("event %q = %+v, want index %d of 2, fresh run", label, ev, i)
		}
	}
}

// TestRunnerSlotsCarryOver runs one-point specs on a Runner whose Slots
// keep one slot between calls: k = 8, then 4 in the 8-ary storage, then
// 8 again in what the 4-ary run left, then a two-point spec on two
// workers, and an 8-ary call after a canceled one, which leaves its
// engine mid-run. Every result must be what a fresh sim.Run returns,
// and the second 8-ary call, built in kept storage, must allocate under
// a quarter of the first. A Runner with nil Slots keeps nothing, so its
// second 8-ary call builds fresh.
func TestRunnerSlotsCarryOver(t *testing.T) {
	onePoint := func(cfg sim.Config) *Spec {
		spec := NewSpec("slots", "")
		spec.AddGroup("", Point{Label: "p", Config: cfg})
		return spec
	}
	eight := fastConfig(1)
	eight.K = 8
	four := fastConfig(2)
	pair := NewSpec("slots-pair", "")
	pair.AddGroup("", Point{Label: "a", Config: fastConfig(3)}, Point{Label: "b", Config: eight})

	// run runs spec on r and returns the bytes the call allocated; every
	// result must marshal to what a fresh run of its config does.
	run := func(r Runner, spec *Spec) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		grouped, err := r.RunSpec(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range spec.Points() {
			want, err := sim.Run(p.Config)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(grouped[0][i])
			if wantJSON, _ := json.Marshal(want); string(got) != string(wantJSON) {
				t.Errorf("%s point %d differs from a fresh run:\n got %s\nwant %s", spec.Name, i, got, wantJSON)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}

	kept := Runner{Workers: 2, Slots: make(chan *sim.Slot, 1)}
	first := run(kept, onePoint(eight))
	run(kept, onePoint(four))
	second := run(kept, onePoint(eight))
	t.Logf("k=8 on kept slots: first call %d B, second %d B (%.3fx)", first, second, float64(second)/float64(first))
	if second*4 >= first {
		t.Errorf("second k=8 call allocated %d B, want under a quarter of the first's %d B: the slot was not kept", second, first)
	}
	run(kept, pair)
	if n := len(kept.Slots); n != 1 {
		t.Errorf("after a two-worker call Slots holds %d slots, want its capacity 1", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	canceled := kept
	canceled.Ctx = ctx
	if _, err := canceled.RunSpec(onePoint(slowConfig())); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call: err = %v, want context.Canceled", err)
	}
	run(kept, onePoint(eight))

	fresh := Runner{Workers: 1}
	run(fresh, onePoint(eight))
	again := run(fresh, onePoint(eight))
	t.Logf("k=8 on nil Slots: second call %d B (%.3fx the kept first)", again, float64(again)/float64(first))
	if again*2 < first {
		t.Errorf("second k=8 call on nil Slots allocated %d B, want at least half of a fresh build's %d B", again, first)
	}
}
