package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Submission errors the handlers map to HTTP status codes.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (backpressure: the client should retry later).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrClosed rejects submissions after Shutdown has begun.
	ErrClosed = errors.New("server: shutting down")
)

// keepFinished is how many finished jobs the manager holds. Past it the
// oldest finished job is evicted, so a long-lived daemon's memory stays
// bounded; its points stay in the result cache.
const keepFinished = 1024

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// Event is one entry of a job's progress log, streamed over SSE. Every
// event of a job is retained, so a subscriber that connects late
// replays the full history before going live.
type Event struct {
	// Type is queued, started, point, done, failed, or canceled.
	Type string `json:"type"`
	// Points is the grid size (queued and started events).
	Points int `json:"points,omitempty"`
	// Point is the completed point (point events). Its Index/Total
	// locate it in the job's grid, so Total equals the job's Points.
	Point *experiments.PointEvent `json:"point,omitempty"`
	// PointsDone is the job-wide completion count after this event.
	PointsDone int `json:"points_done,omitempty"`
	// Error carries the failure (failed events).
	Error string `json:"error,omitempty"`
	// CacheHit on a terminal done event reports that no fresh
	// simulation ran: every point came from the result cache.
	CacheHit bool `json:"cacheHit,omitempty"`
}

// JobResult is the deterministic payload of a finished job: the text
// report the equivalent CLI invocation prints and, for spec and config
// submissions, the grouped results. It deliberately carries no
// timestamps or cache statistics, so resubmitting the same work yields
// byte-identical result JSON regardless of how it was served.
type JobResult struct {
	// Experiment is the registry name, for by-name submissions.
	Experiment string `json:"experiment,omitempty"`
	// Spec is the spec name, for spec and config submissions.
	Spec string `json:"spec,omitempty"`
	// Report is the human-readable rendering (what the CLI prints).
	Report string `json:"report"`
	// Groups are the raw results, grouped like the submitted spec.
	Groups [][]sim.Result `json:"groups,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Name is the experiment or spec name; Scale is set for registry
	// submissions.
	Name  string `json:"name"`
	Scale string `json:"scale,omitempty"`
	// Fingerprint is the submitted grid's content address (empty when
	// the grid has no serializable form).
	Fingerprint string `json:"fingerprint,omitempty"`
	Points      int    `json:"points"`
	PointsDone  int    `json:"points_done"`
	CacheHits   int    `json:"cache_hits"`
	// CacheHit reports that the finished job ran zero fresh
	// simulations: every point was served by the result cache.
	CacheHit bool            `json:"cacheHit"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// Job is one submission moving through the queue. All mutable state is
// guarded by mu; the fields above it are immutable after Submit. A job
// that has ended keeps only what Status and its event stream read.
type Job struct {
	id     string
	seq    int
	name   string
	scale  string
	fp     string
	points int

	mu        sync.Mutex
	state     string
	sub       *experiments.Submission // set until the job ends
	canceled  bool                    // cancel requested
	cancel    context.CancelFunc      // set while running
	done      int
	cacheHits int
	err       error
	result    json.RawMessage
	events    []Event
	notify    chan struct{} // closed and replaced on every append
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// appendEvent records an event and wakes every events-stream reader.
// Callers must hold j.mu.
func (j *Job) appendEventLocked(ev Event) {
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// eventsSince returns the events from index i on, a channel that closes
// when more arrive, and whether the returned slice ends the stream.
func (j *Job) eventsSince(i int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs := j.events[i:]
	return evs, j.notify, terminal(j.state) && i+len(evs) == len(j.events)
}

// recordPoint folds one completed grid point into the job's counters
// and event log. Called from runner worker goroutines.
func (j *Job) recordPoint(ev experiments.PointEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	if ev.CacheHit {
		j.cacheHits++
	}
	j.appendEventLocked(Event{Type: "point", Point: &ev, PointsDone: j.done})
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Name:        j.name,
		Scale:       j.scale,
		Fingerprint: j.fp,
		Points:      j.points,
		PointsDone:  j.done,
		CacheHits:   j.cacheHits,
		CacheHit:    j.state == StateDone && j.cacheHits == j.done,
		Result:      j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Manager owns the bounded queue and the job workers.
type Manager struct {
	cfg Config
	met *metrics

	baseCtx    context.Context // canceled to abort all running jobs
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []*Job                 // held finished jobs, oldest first
	results  map[string]*heldResult // shared payloads by spec fingerprint
	seq      int
	closed   bool

	queue chan *Job
	slots chan *sim.Slot // engine storage a job leaves for the next
	wg    sync.WaitGroup
}

// heldResult is the one copy of a payload that the held finished jobs
// of a spec fingerprint share: each holder's result is raw itself.
type heldResult struct {
	raw     json.RawMessage
	holders int
}

func newManager(cfg Config) *Manager {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	workers := cfg.JobWorkers
	if workers == 0 {
		workers = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		met:        newMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		results:    make(map[string]*heldResult),
		queue:      make(chan *Job, cfg.QueueDepth),
		// One slot per job worker: an idle daemon keeps the engine
		// storage of at most that many jobs.
		slots: make(chan *sim.Slot, max(workers, 0)),
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Submit parses nothing: it takes an already-parsed submission (the
// handlers run experiments.ParseSubmission), registers a job, and
// enqueues it.
// A full queue rejects with ErrQueueFull rather than blocking the
// caller — backpressure belongs at the edge.
func (m *Manager) Submit(sub *experiments.Submission) (*Job, error) {
	name := sub.Name
	if name == "" {
		name = sub.Spec.Name
	}
	j := &Job{
		sub:    sub,
		name:   name,
		scale:  sub.ScaleName,
		state:  StateQueued,
		points: sub.Spec.NumPoints(),
		notify: make(chan struct{}),
	}
	if fp, err := sub.Spec.Fingerprint(); err == nil {
		j.fp = fp
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	m.seq++
	j.seq = m.seq
	j.id = fmt.Sprintf("job-%06d", m.seq)
	j.mu.Lock()
	j.appendEventLocked(Event{Type: StateQueued, Points: j.points})
	j.mu.Unlock()
	m.jobs[j.id] = j
	select {
	case m.queue <- j:
	default:
		delete(m.jobs, j.id)
		m.seq--
		m.mu.Unlock()
		m.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	m.mu.Unlock()
	m.met.submitted.Add(1)
	m.logf("job %s queued: %s (%d points)", j.id, j.name, j.points)
	return j, nil
}

// Lookup returns a job by id.
func (m *Manager) Lookup(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// notFound explains why Lookup does not hold id. Every id up to the
// sequence was accepted (a rejected submission gives its number back),
// so one that is no longer held was evicted.
func (m *Manager) notFound(id string) string {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	m.mu.Lock()
	evicted := err == nil && n >= 1 && n <= m.seq && id == fmt.Sprintf("job-%06d", n)
	m.mu.Unlock()
	switch {
	case !evicted:
		return fmt.Sprintf("no job %q", id)
	case m.cfg.Cache == nil:
		return fmt.Sprintf("job %q was evicted: only the newest %d finished jobs are kept", id, keepFinished)
	default:
		return fmt.Sprintf("job %q was evicted: only the newest %d finished jobs are kept; "+
			"the result cache still holds its points, so resubmitting it is a cache hit", id, keepFinished)
	}
}

// retire records that a job reached a terminal state and evicts the
// oldest finished job once more than keepFinished are held, dropping
// its hold on its payload. Callers must not hold j.mu (the lock order
// is m.mu, then j.mu).
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, j)
	if len(m.finished) > keepFinished {
		old := m.finished[0]
		delete(m.jobs, old.id)
		m.releaseLocked(old)
		m.finished[0] = nil
		m.finished = m.finished[1:]
	}
}

// holdLocked returns the bytes a finished job of spec fingerprint fp
// keeps for its payload raw: the fingerprint's held copy when raw is
// byte-identical to it, and raw itself otherwise, which becomes the held
// copy when the fingerprint has none. An empty fingerprint never
// shares. Callers hold m.mu.
func (m *Manager) holdLocked(fp string, raw json.RawMessage) json.RawMessage {
	h, ok := m.results[fp]
	switch {
	case ok && bytes.Equal(h.raw, raw):
		h.holders++
		return h.raw
	case !ok && fp != "":
		m.results[fp] = &heldResult{raw: raw, holders: 1}
	}
	m.met.resultBytes.Add(int64(len(raw)))
	return raw
}

// releaseLocked drops an evicted job's hold on its payload: a holder of
// its fingerprint's shared copy points at that copy's bytes, which go
// when their last holder does. Callers hold m.mu.
func (m *Manager) releaseLocked(j *Job) {
	j.mu.Lock()
	raw := j.result
	j.mu.Unlock()
	if len(raw) == 0 {
		return
	}
	if h, ok := m.results[j.fp]; ok && &h.raw[0] == &raw[0] {
		if h.holders--; h.holders > 0 {
			return
		}
		delete(m.results, j.fp)
	}
	m.met.resultBytes.Add(-int64(len(raw)))
}

// Jobs returns every held job's status, oldest first.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs { // sorted below; order restored by seq
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels a job: a queued job goes terminal immediately, a
// running one has its context canceled and goes terminal when the
// runner unwinds. Canceling an already-terminal job is a no-op.
func (m *Manager) Cancel(j *Job) {
	j.mu.Lock()
	queued := j.state == StateQueued
	switch j.state {
	case StateQueued:
		j.canceled = true
		j.state = StateCanceled
		j.sub = nil
		j.appendEventLocked(Event{Type: StateCanceled})
		m.met.canceled.Add(1)
		m.logf("job %s canceled while queued", j.id)
	case StateRunning:
		j.canceled = true
		j.cancel() // runJob observes context.Canceled and finishes the job
		m.logf("job %s cancellation requested", j.id)
	}
	j.mu.Unlock()
	if queued {
		m.retire(j)
	}
}

// QueueDepth reports the number of jobs waiting for a worker.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// runJob executes one dequeued job on this worker goroutine.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	j.state = StateRunning
	j.cancel = cancel
	sub := j.sub
	j.appendEventLocked(Event{Type: "started", Points: j.points})
	j.mu.Unlock()
	m.met.running.Add(1)
	m.logf("job %s running", j.id)

	runner := experiments.Runner{
		Workers: m.cfg.PointWorkers,
		Cache:   m.cfg.Cache,
		Ctx:     ctx,
		OnPoint: func(ev experiments.PointEvent) {
			j.recordPoint(ev)
			m.met.pointDone(ev)
		},
		Slots: m.slots,
	}

	var buf bytes.Buffer
	grouped, err := sub.Run(runner, &buf)
	payload := JobResult{Experiment: sub.Name, Report: buf.String(), Groups: grouped}
	if sub.Name == "" {
		payload.Spec = sub.Spec.Name
	}
	m.met.running.Add(-1)
	m.finish(j, payload, err)
	m.retire(j)
}

// finish moves a job to its terminal state and publishes the result.
// Every payload is marshalled; when its bytes equal the payload a held
// job of the same spec fingerprint published, the job holds that copy
// (holdLocked).
func (m *Manager) finish(j *Job, payload JobResult, err error) {
	var raw json.RawMessage
	var merr error
	if err == nil {
		raw, merr = json.Marshal(payload)
	}
	m.mu.Lock()
	j.mu.Lock()
	j.sub, j.cancel = nil, nil
	switch {
	case err == nil && merr != nil:
		j.state = StateFailed
		j.err = merr
		j.appendEventLocked(Event{Type: StateFailed, Error: merr.Error()})
		m.met.failed.Add(1)
	case err == nil:
		j.state = StateDone
		j.result = m.holdLocked(j.fp, raw)
		j.appendEventLocked(Event{
			Type:       StateDone,
			PointsDone: j.done,
			CacheHit:   j.cacheHits == j.done,
		})
		m.met.done.Add(1)
	case errors.Is(err, context.Canceled) || j.canceled:
		j.state = StateCanceled
		j.err = context.Canceled
		j.appendEventLocked(Event{Type: StateCanceled})
		m.met.canceled.Add(1)
	default:
		j.state = StateFailed
		j.err = err
		j.appendEventLocked(Event{Type: StateFailed, Error: err.Error()})
		m.met.failed.Add(1)
	}
	state := j.state
	j.mu.Unlock()
	m.mu.Unlock()
	m.logf("job %s %s", j.id, state)
}

// Shutdown drains the manager: no new submissions are accepted, queued
// and running jobs are given until ctx expires to finish, then every
// in-flight job is canceled and the workers are joined. It is the
// SIGTERM path of cmd/stcc-serve.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-drained
		return ctx.Err()
	}
}
