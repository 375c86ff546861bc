package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/server"
	"repro/internal/sim"
)

const (
	// servePool is how many distinct configurations the hits draw from;
	// set-up runs each once so every later submission of it is a hit.
	servePool = 16
	// serveMissEvery makes one job in ten a fresh configuration.
	serveMissEvery = 10
	// serveSetups is how many times set-up (server start plus pool
	// pre-fill) is repeated; each costs sixteen simulations.
	serveSetups = 5
	// serveBatches is how many batches the job sequence runs in. The
	// host is probed between batches, while the service is idle.
	serveBatches = 10
)

// serveJobs is the closed loop's job count, about -seconds of work on
// the reference host and never fewer than 1200: enough for 1000 hits
// behind hit_p99 and 100 misses behind miss_p90.
func serveJobs(o options) int {
	if o.smoke {
		return 1200
	}
	return max(1200, 200*o.seconds)
}

// serveConfig is one job: an 8-ary 2-cube under the self-tuned scheme,
// 1000 warm-up and 3000 measured cycles.
func serveConfig(o options, seed int64) sim.Config {
	cfg := paperTune(seed)
	cfg.K = 8
	cfg.Rate = 0.02
	cfg.WarmupCycles, cfg.MeasureCycles = 1000, 3000
	if o.smoke {
		cfg.K = 4
		cfg.WarmupCycles, cfg.MeasureCycles = 100, 200
	}
	return cfg
}

// serveInputs is the job sequence the workload seed generates: the
// pool's configurations and, per job, its body and which pool entry it
// repeats (-1 for a miss). Seeds never collide, so misses stay misses.
type serveInputs struct {
	pool   [][]byte
	cycles int64 // simulated cycles per configuration
	bodies [][]byte
	fps    []string // each job's configuration fingerprint, as the store sees it
	poolOf []int
	misses int
}

func makeServeInputs(o options) (*serveInputs, error) {
	n := serveJobs(o)
	in := &serveInputs{
		cycles: serveConfig(o, 0).TotalCycles(), misses: n / serveMissEvery,
		bodies: make([][]byte, n), fps: make([]string, n), poolOf: make([]int, n),
	}
	base := o.seed << 24
	var poolFps []string
	for i := 0; i < servePool; i++ {
		body, fp, err := encodeConfig(serveConfig(o, base+int64(i)))
		if err != nil {
			return nil, err
		}
		in.pool, poolFps = append(in.pool, body), append(poolFps, fp)
	}
	rng := rand.New(rand.NewSource(o.seed))
	for j, k := range rng.Perm(n) {
		if k < in.misses {
			body, fp, err := encodeConfig(serveConfig(o, base+int64(servePool+j)))
			if err != nil {
				return nil, err
			}
			in.bodies[j], in.fps[j], in.poolOf[j] = body, fp, -1
			continue
		}
		p := rng.Intn(servePool)
		in.bodies[j], in.fps[j], in.poolOf[j] = in.pool[p], poolFps[p], p
	}
	return in, nil
}

func encodeConfig(cfg sim.Config) ([]byte, string, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, "", err
	}
	fp, err := cfg.Fingerprint()
	return body, fp, err
}

// timedStore is the result store the traced pass hands the server: it
// times every Get and Put and counts hits.
type timedStore struct {
	resultcache.Store
	rec *recorder

	mu    sync.Mutex
	calls []storeCall
	hits  int
}

// storeCall is one timed Get or Put; its fingerprint ties it to the
// job whose run span contains it.
type storeCall struct {
	span       int
	fp         string
	start, end int64
}

func (s *timedStore) Get(fp string) (sim.Result, bool, error) {
	t0 := s.rec.now()
	r, ok, err := s.Store.Get(fp)
	s.record(spStoreGet, fp, t0, ok)
	return r, ok, err
}

func (s *timedStore) Put(fp string, r sim.Result) error {
	t0 := s.rec.now()
	err := s.Store.Put(fp, r)
	s.record(spStorePut, fp, t0, false)
	return err
}

func (s *timedStore) record(span int, fp string, start int64, hit bool) {
	end := s.rec.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, storeCall{span: span, fp: fp, start: start, end: end})
	if hit {
		s.hits++
	}
}

// reset forgets the calls made during set-up.
func (s *timedStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls, s.hits = nil, 0
}

// Span names of the traced service pass. A job is the client's whole
// wait; submit, queue, run and fetch tile it as the client sees them.
const (
	spJob = iota
	spSubmit
	spQueue
	spRun
	spFetch
	spStoreGet
	spStorePut
)

var serveSpanNames = []string{
	"client.job", "server.submit", "server.queue", "server.run", "server.fetch",
	"resultcache.get", "resultcache.put",
}

// serveEnv is one running service: an in-process server with
// stcc-serve's shipped defaults and an on-disk result store, behind a
// loopback listener.
type serveEnv struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	store  *timedStore // nil when untraced
}

func startServe(o options, rec *recorder) (*serveEnv, error) {
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	fs, err := fsstore.New(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env := &serveEnv{dir: dir, served: make(chan error, 1)}
	cfg := server.Config{Cache: fs}
	if rec != nil {
		env.store = &timedStore{Store: fs, rec: rec}
		cfg.Cache = env.store
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.srv = server.New(cfg)
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go func() { env.served <- env.hs.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()
	env.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: o.nproc, MaxIdleConnsPerHost: o.nproc,
	}}
	return env, nil
}

// close shuts the listener and the job manager down, waits for both,
// and removes the result store.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	err = errors.Join(err, e.srv.Shutdown(ctx))
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(e.dir))
}

// jobOutcome is one job as its client saw it. Times are nanoseconds on
// the recorder's clock.
type jobOutcome struct {
	err      error
	state    string
	cacheHit bool
	result   json.RawMessage

	submit, ack, started, done, fetched int64
}

// runJob submits one configuration, follows its event stream to the
// terminal event and fetches the result, as an stcc-serve caller does.
func (e *serveEnv) runJob(body []byte, now func() int64) jobOutcome {
	var out jobOutcome
	out.submit = now()
	resp, err := e.client.Post(e.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = decodeReply(resp, http.StatusAccepted, &sub)
	out.ack = now()
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}

	resp, err = e.client.Get(e.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	// The point event says whether the result came from the cache. The
	// status's cacheHit field cannot be used: it reads false for a hit
	// that was also shared with a concurrent identical job.
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			switch ev {
			case "started":
				out.started = now()
			case server.StateDone, server.StateFailed, server.StateCanceled:
				out.done, out.state = now(), ev
			}
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "point" {
			var ev server.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Point == nil {
				out.err = fmt.Errorf("point event of %s: %q", sub.ID, data)
				break
			}
			out.cacheHit = ev.Point.CacheHit
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if out.err != nil {
		return out
	}
	if err := sc.Err(); err != nil || out.state == "" || resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("events of %s: status %d, terminal %q, %v", sub.ID, resp.StatusCode, out.state, err)
		return out
	}

	resp, err = e.client.Get(e.base + "/v1/jobs/" + sub.ID)
	if err != nil {
		out.err = err
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status of %s: %d %v", sub.ID, resp.StatusCode, err)
		return out
	}
	var st struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		out.err = fmt.Errorf("status of %s: %w", sub.ID, err)
		return out
	}
	out.result = st.Result
	if st.State != server.StateDone {
		out.err = fmt.Errorf("job %s ended %s", sub.ID, st.State)
	}
	out.fetched = now()
	return out
}

// decodeReply checks a reply's status and decodes its JSON body.
func decodeReply(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// closedLoop runs bodies through nproc clients, each submitting its
// next job only after its previous one finished, and stores job j's
// outcome in out[j].
func (e *serveEnv) closedLoop(o options, bodies [][]byte, out []jobOutcome, now func() int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < o.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(bodies); j = int(next.Add(1) - 1) {
				out[j] = e.runJob(bodies[j], now)
			}
		}()
	}
	wg.Wait()
}

// setupServe starts a service and runs the pool through it, timing the
// whole; it returns the service and each pool entry's result bytes.
func setupServe(o options, in *serveInputs, rec *recorder) (*serveEnv, [][]byte, time.Duration, error) {
	t0 := time.Now()
	env, err := startServe(o, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	outs := make([]jobOutcome, len(in.pool))
	env.closedLoop(o, in.pool, outs, func() int64 { return 0 })
	took := time.Since(t0)
	pool := make([][]byte, len(outs))
	for i, out := range outs {
		if out.err != nil || out.cacheHit {
			env.close()
			return nil, nil, 0, fmt.Errorf("pre-filling pool entry %d: cache hit %v, %v", i, out.cacheHit, out.err)
		}
		pool[i] = out.result
	}
	return env, pool, took, nil
}

// serveRun is a measured batch: the outcomes, its wall time and the
// service that served it, still running.
type serveRun struct {
	in   *serveInputs
	env  *serveEnv
	outs []jobOutcome
	wall time.Duration
}

// measureServe sets the service up serveSetups times, keeps the last,
// and runs the job sequence through it. The caller closes run.env.
func measureServe(o options, rep *report, rec *recorder) (*serveRun, error) {
	in, err := makeServeInputs(o)
	if err != nil {
		return nil, err
	}
	probe := newHostProbe(1)
	var env *serveEnv
	var pool [][]byte
	setupS, setupRaw, err := timeSetups(probe, serveSetups, func() (time.Duration, error) {
		if env != nil {
			err := env.close()
			if env = nil; err != nil {
				return 0, err
			}
		}
		var took time.Duration
		var err error
		env, pool, took, err = setupServe(o, in, rec)
		return took, err
	})
	if err != nil { // a failed set-up leaves no service running
		return nil, err
	}
	if env.store != nil {
		env.store.reset()
	}

	clock := rec
	if clock == nil {
		clock = newRecorder()
	}
	// The batches keep both CPUs busy, so the host is probed between
	// them, while the service is idle; each batch's wall time and job
	// latencies are scaled by the probes on either side of it.
	runtime.GC()
	outs := make([]jobOutcome, len(in.bodies))
	slowOf := make([]float64, len(in.bodies)) // each job's batch's slowdown
	var wall time.Duration
	var scaledWall float64
	allocs0 := allocatedBytes()
	prevSlow := probe.samplesFor(3)
	for b := 0; b < serveBatches; b++ {
		lo, hi := b*len(outs)/serveBatches, (b+1)*len(outs)/serveBatches
		t0 := time.Now()
		env.closedLoop(o, in.bodies[lo:hi], outs[lo:hi], clock.now)
		took := time.Since(t0)
		slow := probe.samplesFor(3)
		batchSlow := (prevSlow + slow) / 2
		prevSlow = slow
		wall += took
		scaledWall += took.Seconds() / batchSlow
		for j := lo; j < hi; j++ {
			slowOf[j] = batchSlow
		}
	}
	allocs := allocatedBytes() - allocs0
	heap := liveHeapMB(probe) // the service still holds every job

	rep.attempted = len(outs)
	cycles := float64(int64(in.misses) * in.cycles)
	rep.set("setup_s", setupS)
	rep.set("sim_cycles_per_s", cycles/scaledWall)
	rep.set("live_heap_mb", heap)
	rep.set("alloc_b_per_cycle", float64(allocs)/cycles)
	rep.note("unscaled sim_cycles_per_s %.6g, setup_s %.4g; host slowdown %.4g",
		cycles/wall.Seconds(), setupRaw, probe.slowdown(0))

	var hitMs, missMs, rawHitMs []float64
	results := make([]json.RawMessage, len(outs))
	for j, out := range outs {
		results[j] = out.result
		hit := in.poolOf[j] >= 0
		switch {
		case out.err != nil:
			rep.fail("job %d: %v", j, out.err)
			continue
		case out.cacheHit != hit:
			rep.fail("job %d: cache hit %v, want %v", j, out.cacheHit, hit)
		case hit && !bytes.Equal(out.result, pool[in.poolOf[j]]):
			rep.fail("job %d: hit result differs from pool entry %d's pre-fill result", j, in.poolOf[j])
		}
		ms := float64(out.fetched-out.submit) / 1e6
		if hit {
			hitMs = append(hitMs, ms/slowOf[j])
			rawHitMs = append(rawHitMs, ms)
		} else {
			missMs = append(missMs, ms/slowOf[j])
		}
	}
	rep.note("jobs_per_s %.5g scaled, %.5g unscaled (%d jobs in %d batches, %d clients, %d hits, %d misses); failed_frac %.4g",
		float64(len(outs))/scaledWall, float64(len(outs))/wall.Seconds(), len(outs), serveBatches, o.nproc,
		len(hitMs), len(missMs), float64(rep.failed)/float64(len(outs)))
	if op, err := percentile(hitMs, 50); err != nil {
		rep.fail("op_p50_ms: %v", err)
	} else {
		rep.set("op_p50_ms", op)
	}
	rep.percentiles("job latency (ms, scaled):",
		quantile{"hit_p50_ms", hitMs, 50}, quantile{"hit_p99_ms", hitMs, 99},
		quantile{"miss_p50_ms", missMs, 50}, quantile{"miss_p90_ms", missMs, 90})
	rep.percentiles("unscaled:", quantile{"hit_p50_ms", rawHitMs, 50}, quantile{"hit_p99_ms", rawHitMs, 99})
	digest, err := digestOf(results)
	if err != nil {
		env.close()
		return nil, err
	}
	rep.checkDigest(o, digest)
	return &serveRun{in: in, env: env, outs: outs, wall: wall}, nil
}

func runServe(o options) (*report, error) {
	rep := newReport("serve-mixed")
	run, err := measureServe(o, rep, nil)
	if err != nil {
		return nil, err
	}
	return rep, run.env.close()
}

// traceServe runs the untraced batch on one service, then the same job
// sequence on a fresh service whose result store is timed.
func traceServe(o options) (*report, error) {
	rep := newReport("serve-mixed")
	untraced, err := measureServe(o, rep, nil)
	if err != nil {
		return nil, err
	}
	if err := untraced.env.close(); err != nil {
		return nil, err
	}
	rec := newRecorder(serveSpanNames...)
	pass := newReport("serve-mixed")
	traced, err := measureServe(o, pass, rec)
	if err != nil {
		return nil, err
	}
	for _, p := range pass.problems {
		rep.fail("traced pass: %s", p)
	}
	if err := traced.env.close(); err != nil {
		return nil, err
	}
	for j := range traced.outs {
		if !bytes.Equal(traced.outs[j].result, untraced.outs[j].result) {
			rep.fail("job %d: traced result differs from untraced", j)
		}
	}
	rep.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1)
	serveLayerMetrics(rep, rec, traced)

	path, err := rec.write(filepath.Join(o.outDir, "traces"), "serve-mixed", hostInfo(o.seed))
	if err != nil {
		return nil, err
	}
	rep.note("trace file %s", path)
	return rep, nil
}

// serveLayerMetrics folds a traced batch's client-side job timelines
// and store calls into spans and per-layer metrics.
func serveLayerMetrics(rep *report, rec *recorder, run *serveRun) {
	outs, calls := run.outs, run.env.store.calls
	keepFrom := max(0, len(outs)/2-rawCycles/2)
	keepTo := min(len(outs), keepFrom+rawCycles)
	runSpan := make(map[string][]int32) // fingerprint -> kept run spans
	var submit, queue, runHit, runMiss, gets, puts []float64
	for j, out := range outs {
		if out.err != nil {
			continue
		}
		tiles := []struct {
			span       int
			start, end int64
		}{
			{spSubmit, out.submit, out.ack}, {spQueue, out.ack, out.started},
			{spRun, out.started, out.done}, {spFetch, out.done, out.fetched},
		}
		rec.observe(spJob, out.submit, out.fetched)
		for _, t := range tiles {
			rec.observe(t.span, t.start, t.end)
		}
		submit = append(submit, float64(out.ack-out.submit)/1e6)
		queue = append(queue, float64(out.started-out.ack)/1e6)
		if run.in.poolOf[j] >= 0 {
			runHit = append(runHit, float64(out.done-out.started)/1e6)
		} else {
			runMiss = append(runMiss, float64(out.done-out.started)/1e6)
		}
		if j >= keepFrom && j < keepTo {
			id := rec.keep(spJob, -1, out.submit, out.fetched)
			for _, t := range tiles {
				sid := rec.keep(t.span, id, t.start, t.end)
				if t.span == spRun {
					runSpan[run.in.fps[j]] = append(runSpan[run.in.fps[j]], sid)
				}
			}
		}
	}
	for _, c := range calls {
		rec.observe(c.span, c.start, c.end)
		ms := float64(c.end-c.start) / 1e6
		if c.span == spStoreGet {
			gets = append(gets, ms)
		} else {
			puts = append(puts, ms)
		}
		parent := int32(-1)
		for _, sid := range runSpan[c.fp] {
			if s := rec.raw[sid]; s.Start <= c.start && c.end <= s.End {
				parent = sid
			}
		}
		if parent >= 0 {
			rec.keep(c.span, parent, c.start, c.end)
		}
	}

	job := float64(rec.sum(spJob))
	tiled := int64(0)
	for _, m := range []struct {
		span   int
		metric string
	}{
		{spSubmit, "server.submit_frac"}, {spQueue, "server.queue_frac"},
		{spRun, "server.run_frac"}, {spFetch, "server.fetch_frac"},
		{spStoreGet, "resultcache.get_frac"}, {spStorePut, "resultcache.put_frac"},
	} {
		rep.set(m.metric, float64(rec.sum(m.span))/job)
		if m.span != spStoreGet && m.span != spStorePut {
			tiled += rec.sum(m.span)
		}
	}
	unattributed := (job - float64(tiled)) / job
	rep.set("trace.unattributed_frac", unattributed)
	if unattributed > maxUnattributed {
		rep.fail("trace.unattributed_frac %.4f exceeds %.2f", unattributed, maxUnattributed)
	}
	if len(gets) > 0 {
		rep.set("resultcache.hit_ratio", float64(run.env.store.hits)/float64(len(gets)))
	}

	rep.percentiles("server and resultcache (ms):",
		quantile{"server.submit_ms_p50", submit, 50}, quantile{"server.submit_ms_p99", submit, 99},
		quantile{"server.queue_ms_p50", queue, 50}, quantile{"server.queue_ms_p99", queue, 99},
		quantile{"server.run_ms_p50_hit", runHit, 50}, quantile{"server.run_ms_p50_miss", runMiss, 50},
		quantile{"resultcache.get_ms_p50", gets, 50}, quantile{"resultcache.get_ms_p99", gets, 99},
		quantile{"resultcache.put_ms_p50", puts, 50}, quantile{"resultcache.put_ms_p90", puts, 90})
}
