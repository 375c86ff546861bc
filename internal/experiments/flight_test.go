package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

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

// waitingCtx signals on waiting each time Done is read. Flight.do reads
// a caller's Done only when it starts waiting on another caller's
// execution, so the signal marks a follower that has joined the flight.
type waitingCtx struct {
	context.Context
	waiting chan<- struct{}
}

func (c waitingCtx) Done() <-chan struct{} {
	c.waiting <- struct{}{}
	return c.Context.Done()
}

// Concurrent do calls under one key must collapse to a single
// execution: one leader runs fn, every follower adopts its result with
// shared=true.
func TestFlightCollapsesConcurrentCalls(t *testing.T) {
	f := NewFlight()
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	want := sim.Result{PacketsDelivered: 42}
	leaderFn := func() (sim.Result, bool, error) {
		executions.Add(1)
		close(started) // the entry is registered: followers will adopt
		<-release
		return want, true, nil
	}
	followerFn := func() (sim.Result, bool, error) {
		executions.Add(1)
		return sim.Result{}, false, errors.New("follower executed")
	}

	type outcome struct {
		res    sim.Result
		hit    bool
		shared bool
		err    error
	}
	leaderDone := make(chan outcome, 1)
	go func() {
		res, hit, shared, err := f.do(context.Background(), "key", leaderFn)
		leaderDone <- outcome{res, hit, shared, err}
	}()
	<-started

	// Release the leader only once every follower is waiting on it: a
	// follower that arrived after the leader finished would rightly lead
	// a fresh execution of its own.
	const followers = 4
	followerDone := make(chan outcome, followers)
	waiting := make(chan struct{}, followers)
	for i := 0; i < followers; i++ {
		go func() {
			ctx := waitingCtx{Context: context.Background(), waiting: waiting}
			res, hit, shared, err := f.do(ctx, "key", followerFn)
			followerDone <- outcome{res, hit, shared, err}
		}()
	}
	for i := 0; i < followers; i++ {
		<-waiting
	}
	close(release)

	lead := <-leaderDone
	if lead.err != nil || lead.shared || !lead.hit || lead.res.PacketsDelivered != want.PacketsDelivered {
		t.Fatalf("leader outcome = %+v, want unshared hit %+v", lead, want)
	}
	for i := 0; i < followers; i++ {
		fo := <-followerDone
		if fo.err != nil || !fo.shared || !fo.hit || fo.res.PacketsDelivered != want.PacketsDelivered {
			t.Fatalf("follower outcome = %+v, want shared adoption of %+v", fo, want)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1", n)
	}
}

// A leader whose own job is canceled must not poison its followers: a
// waiting follower observes the cancellation, re-enters, and runs the
// work itself.
func TestFlightLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	f := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	canceledLeader := func() (sim.Result, bool, error) {
		close(started)
		<-release
		return sim.Result{}, false, context.Canceled
	}

	go f.do(context.Background(), "key", canceledLeader)
	<-started

	want := sim.Result{PacketsDelivered: 7}
	var followerRuns atomic.Int64
	followerDone := make(chan error, 1)
	go func() {
		res, _, shared, err := f.do(context.Background(), "key", func() (sim.Result, bool, error) {
			followerRuns.Add(1)
			return want, false, nil
		})
		switch {
		case err != nil:
			followerDone <- err
		case res.PacketsDelivered != want.PacketsDelivered:
			followerDone <- errors.New("follower adopted the canceled leader's result")
		case shared && followerRuns.Load() == 0:
			followerDone <- errors.New("shared=true but nobody ran the work")
		default:
			followerDone <- nil
		}
	}()
	close(release)
	if err := <-followerDone; err != nil {
		t.Fatal(err)
	}
	if n := followerRuns.Load(); n != 1 {
		t.Fatalf("follower fn executed %d times, want 1 (re-led after leader cancel)", n)
	}
}

// A follower with a canceled context of its own stops waiting with that
// error instead of blocking on the leader.
func TestFlightFollowerHonorsOwnCancel(t *testing.T) {
	f := NewFlight()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go f.do(context.Background(), "key", func() (sim.Result, bool, error) {
		close(started)
		<-release
		return sim.Result{}, false, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := f.do(ctx, "key", func() (sim.Result, bool, error) {
		return sim.Result{}, false, errors.New("canceled follower executed")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
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
		if ev.Index != i || ev.Total != 2 || ev.CacheHit || ev.Shared {
			t.Errorf("event %q = %+v, want index %d of 2, fresh run", label, ev, i)
		}
	}
}
