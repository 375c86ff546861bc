package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Runner executes the independent points of an experiment grid — rate x
// scheme x deadlock-mode x seed — across a pool of worker goroutines.
// Each point is a sim.Engine run whose result depends on its config
// alone, so points are embarrassingly parallel; the runner only
// schedules them and reassembles results in deterministic input order.
// A worker builds its points' engines in one sim.Slot for the length of
// a grid call, so each point after its first reuses the storage of the
// last; with Slots set, the slot outlives the call and the next call's
// first point reuses it too. No result depends on which worker ran it
// or after which point. The zero Runner uses every available CPU and
// keeps no slot between calls.
type Runner struct {
	// Workers caps the number of concurrently running simulations.
	// Zero or negative selects runtime.GOMAXPROCS(0); 1 runs the whole
	// grid serially.
	Workers int
	// Cache, when non-nil, short-circuits grid points whose
	// configuration fingerprint is already stored and files every fresh
	// result. The engine is deterministic, so a hit is bit-identical to
	// re-running; configurations with no fingerprint (live schedules,
	// custom throttlers) always run. Every -cache flag and stcc-serve
	// attach the on-disk fsstore. Runners that miss on one fingerprint
	// at the same time each simulate it; they Put identical bytes, so
	// the store keeps one entry.
	Cache resultcache.Store
	// Ctx, when non-nil, cancels grid execution: no new points are
	// dispatched after cancellation and in-flight simulations stop
	// between cycles, so the grid returns ctx's error promptly instead
	// of abandoning goroutines. A nil Ctx means run to completion.
	Ctx context.Context
	// OnPoint, when non-nil, observes every completed grid point. It is
	// called from worker goroutines — possibly concurrently — so
	// implementations must be safe for concurrent use. Points of a
	// failed grid may be observed before the grid's error is returned.
	OnPoint func(PointEvent)
	// Slots, when non-nil, is a free list of engine storage shared by
	// the calls that use this Runner (a leaky buffer): each worker
	// starts from a slot waiting in it, or from an empty one, and offers
	// its slot back when the call ends, dropping it when the channel is
	// full. So the channel's capacity bounds how many engines' storage
	// is kept between calls. stcc-serve shares one across its jobs; nil
	// keeps a worker's slot for one call only.
	Slots chan *sim.Slot
}

// PointEvent describes one completed grid point for progress reporting
// (the stcc-serve SSE stream is built from these).
type PointEvent struct {
	// Index and Total locate the point in the flattened grid; events
	// arrive in completion order, not index order.
	Index int `json:"index"`
	Total int `json:"total"`
	// Label is the point's spec label ("random rate 0.02").
	Label string `json:"label,omitempty"`
	// CacheHit reports that the result came from the result cache.
	CacheHit bool `json:"cacheHit"`
}

// ctx resolves the runner's base context.
func (r Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// workerCount resolves the effective pool size for n jobs.
func (r Runner) workerCount(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// ForEach runs fn(0), fn(1), ..., fn(n-1) across the runner's worker
// pool and blocks until all started jobs finish. fn must store its own
// result at its index; distinct indices never race. The first error
// cancels the dispatch of not-yet-started jobs via context, and the
// returned error is the lowest-index failure among jobs that ran, not
// counting jobs that merely saw that cancellation — so the reported
// error names the root cause and does not depend on the worker count. A
// canceled Runner.Ctx stops dispatch the same way and surfaces ctx's
// error.
func (r Runner) ForEach(n int, fn func(i int) error) error {
	return r.forEach(n, func(_ context.Context, _ *sim.Slot, i int) error { return fn(i) })
}

// forEach is ForEach with the derived, cancel-on-error context passed to
// each job, so jobs (runPoint) can abort in-flight simulations when a
// sibling fails or the runner's own context is canceled, and with the
// running worker's sim.Slot, so each point a worker simulates is built
// in the storage of the last one. A worker takes its slot from r.Slots
// and offers it back when the call ends; with nil Slots the slots live
// only for this call.
func (r Runner) forEach(n int, call func(ctx context.Context, slot *sim.Slot, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.workerCount(n)
	base := r.ctx()
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	// Workers take indices in order, and none after cancellation.
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := r.takeSlot()
			defer r.putSlot(slot)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := call(ctx, slot, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	// The lowest failing index is always dispatched before any higher
	// one, so this choice is deterministic for deterministic jobs. A job
	// that failed only because a sibling's error canceled the shared
	// context is a symptom, so it never masks that error, even from a
	// lower index. Cancellation is the answer only when the caller
	// canceled or when no job failed for any other reason.
	callerCanceled := base.Err() != nil
	var canceled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if canceled == nil {
				canceled = err
			}
		case !callerCanceled:
			return err
		}
	}
	if canceled != nil {
		return canceled
	}
	// Every dispatched job succeeded; if dispatch stopped early it was
	// the base context, not a job error.
	return base.Err()
}

// takeSlot returns a slot waiting in r.Slots, or an empty one. A nil
// channel is never ready, so nil Slots always gives an empty slot.
func (r Runner) takeSlot() *sim.Slot {
	select {
	case slot := <-r.Slots:
		return slot
	default:
		return new(sim.Slot)
	}
}

// putSlot offers slot back to r.Slots without blocking; it is dropped
// when the channel is full or nil.
func (r Runner) putSlot(slot *sim.Slot) {
	select {
	case r.Slots <- slot:
	default:
	}
}

// runPoint runs one configuration through the result cache when one is
// attached, and otherwise simulates it on slot. Unserializable
// configurations (no fingerprint) bypass the cache; a cache read or
// write failure is a real error so full disks surface instead of
// silently degrading (corrupt entries are quarantined by the cache
// itself and re-run as misses).
func (r Runner) runPoint(ctx context.Context, slot *sim.Slot, cfg sim.Config) (sim.Result, PointEvent, error) {
	var fp string
	var err error
	if r.Cache != nil {
		fp, err = cfg.Fingerprint()
	}
	if r.Cache == nil || err != nil {
		res, err := slot.Run(ctx, cfg)
		return res, PointEvent{}, err
	}
	if res, hit, err := r.Cache.Get(fp); err != nil || hit {
		return res, PointEvent{CacheHit: hit}, err
	}
	res, err := slot.Run(ctx, cfg)
	if err != nil {
		return sim.Result{}, PointEvent{}, err
	}
	if err := r.Cache.Put(fp, res); err != nil {
		return sim.Result{}, PointEvent{}, err
	}
	return res, PointEvent{}, nil
}
