package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/server"
	"repro/internal/sim"
)

// newTestServer starts a server on an httptest listener and tears both
// down (draining jobs) when the test ends.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// tinyConfig is a sub-second serializable configuration.
func tinyConfig(seed int64) sim.Config {
	cfg := sim.NewConfig()
	cfg.K = 4
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Rate = 0.005
	cfg.Seed = seed
	return cfg
}

// tinySpecJSON is a two-point spec submission body.
func tinySpecJSON(t *testing.T) []byte {
	t.Helper()
	spec := experiments.NewSpec("tiny", "two-point test grid")
	spec.AddGroup("g",
		experiments.Point{Label: "seed 1", Config: tinyConfig(1)},
		experiments.Point{Label: "seed 2", Config: tinyConfig(2)})
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submit POSTs a body to /v1/jobs and decodes the 202 response.
func submit(t *testing.T, ts *httptest.Server, body []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
	}
	var sr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	if sr.ID == "" {
		t.Fatalf("submit response has no id: %s", raw)
	}
	return sr.ID
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d: %s", id, resp.StatusCode, raw)
	}
	var st server.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("status %q: %v", raw, err)
	}
	return st
}

// waitTerminal polls a job until it leaves the queued/running states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndpointsTable drives every read-only endpoint and the submission
// error paths through the real mux.
func TestEndpointsTable(t *testing.T) {
	// No workers: submissions stay queued, so responses are predictable.
	_, ts := newTestServer(t, server.Config{JobWorkers: -1, QueueDepth: 1})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"healthz", "GET", "/healthz", "", http.StatusOK, `{"status":"ok"}`},
		{"version", "GET", "/v1/version", "", http.StatusOK, `"go_version"`},
		{"metrics prom", "GET", "/metrics", "", http.StatusOK, "stcc_queue_depth"},
		{"metrics prom help", "GET", "/metrics", "", http.StatusOK, "# TYPE stcc_jobs_submitted_total counter"},
		{"metrics json", "GET", "/metrics.json", "", http.StatusNotFound, ""},
		{"cache stats without store", "GET", "/v1/cache", "", http.StatusNotFound, "no result store"},
		{"cache get bad fingerprint", "GET", "/v1/cache/nothex", "", http.StatusNotFound, "not found"},
		{"cache put without store", "PUT", "/v1/cache/" + strings.Repeat("ab", 32), "{}", http.StatusNotFound, "not found"},
		{"registry", "GET", "/v1/registry", "", http.StatusOK, `"fig4"`},
		{"registry has analytic entries", "GET", "/v1/registry", "", http.StatusOK, `"tab1"`},
		{"jobs list empty", "GET", "/v1/jobs", "", http.StatusOK, `{"jobs":[]}`},
		{"status of unknown job", "GET", "/v1/jobs/job-999999", "", http.StatusNotFound, "no job"},
		{"cancel of unknown job", "DELETE", "/v1/jobs/job-999999", "", http.StatusNotFound, "no job"},
		{"events of unknown job", "GET", "/v1/jobs/job-999999/events", "", http.StatusNotFound, "no job"},
		{"submit garbage", "POST", "/v1/jobs", "not json", http.StatusBadRequest, "JSON"},
		{"submit empty object", "POST", "/v1/jobs", "{}", http.StatusBadRequest, "unrecognized submission"},
		{"submit unknown experiment", "POST", "/v1/jobs", `{"name":"fig99"}`, http.StatusBadRequest, "unknown experiment"},
		{"submit unknown scale", "POST", "/v1/jobs", `{"name":"fig4","scale":"huge"}`, http.StatusBadRequest, "scale"},
		{"submit unknown spec field", "POST", "/v1/jobs", `{"groups":[],"version":1,"name":"x","zzz":3}`, http.StatusBadRequest, "unknown field"},
		{"submit aimd window min above default max", "POST", "/v1/jobs", `{"version":1,"k":4,"n":2,"vcs":3,"buf_depth":8,"packet_length":16,"mode":"recovery","deadlock_timeout":160,"sideband_hop_delay":2,"sideband_mechanism":"sideband","selection":"rotate","switching":"wormhole","pattern":"random","rate":0.005,"scheme":{"kind":"aimd","window_min":100},"warmup_cycles":100,"measure_cycles":400,"seed":1}`, http.StatusBadRequest, "window"},
		{"wrong method on jobs id", "POST", "/v1/jobs/job-000001", "", http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.wantSubstr != "" && !strings.Contains(string(raw), tc.wantSubstr) {
				t.Errorf("%s %s body %s, want substring %q", tc.method, tc.path, raw, tc.wantSubstr)
			}
		})
	}
}

// TestCrashInputsRefused POSTs configs that once took the daemon down
// or stalled it — one panicked while the handler validated it, one
// passed validation and panicked on a job worker, one hung a job worker
// past cancellation in the side-band's quantizer, and one ran the
// process out of memory sizing the notification wheel — to a server
// with a worker, and checks each gets a 400 naming its field and the
// server stays up.
func TestCrashInputsRefused(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	const prefix = `{"version":1,"k":4,`
	const suffix = `"vcs":3,"buf_depth":8,"packet_length":16,"mode":"recovery","deadlock_timeout":160,` +
		`"sideband_mechanism":"sideband","selection":"rotate","switching":"wormhole","pattern":"random",` +
		`"rate":0.005,"scheme":{"kind":"base"},"warmup_cycles":100,"measure_cycles":400,"seed":1}`
	notify := strings.Replace(suffix, `"kind":"base"`, `"kind":"notify"`, 1)
	for _, tc := range []struct{ body, wantSubstr string }{
		{prefix + `"n":4611686018427387904,"sideband_hop_delay":2,` + suffix, "k^n"},
		{prefix + `"n":2,"sideband_hop_delay":2305843009213693952,` + suffix, "sideband_hop_delay"},
		{prefix + `"n":2,"sideband_hop_delay":2,"sideband_bits":64,` + suffix, "width"},
		{prefix + `"n":2,"sideband_hop_delay":17179869184,` + notify, "sideband_hop_delay"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.wantSubstr) {
			t.Errorf("POST /v1/jobs = %d %s, want 400 naming %q", resp.StatusCode, raw, tc.wantSubstr)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after the crash inputs = %d, want 200", resp.StatusCode)
	}
}

// TestQueueBackpressure fills the bounded queue and checks the 429 +
// Retry-After rejection, then frees a slot by canceling.
func TestQueueBackpressure(t *testing.T) {
	_, ts := newTestServer(t, server.Config{JobWorkers: -1, QueueDepth: 1})

	id := submit(t, ts, []byte(`{"name":"tab1"}`))

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"tab1"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST = %d (%s), want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Cancel the queued job: it goes terminal without ever running.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st := getStatus(t, ts, id); st.State != server.StateCanceled {
		t.Fatalf("canceled queued job state = %q, want %q", st.State, server.StateCanceled)
	}
}

// TestShutdownRejectsSubmissions drains the manager and checks the 503.
func TestShutdownRejectsSubmissions(t *testing.T) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"tab1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST after shutdown = %d, want 503", resp.StatusCode)
	}
}

// sseEvent is one parsed frame of an event stream.
type sseEvent struct {
	Type string
	Data string
}

// readSSE consumes an event stream to EOF (the server closes it after
// the terminal event).
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.Type != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestSubmitTab1AndStreamEvents is the registry end-to-end path:
// submit tab1 by name, stream SSE to completion, check the report, then
// re-submit and require a byte-identical result.
func TestSubmitTab1AndStreamEvents(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	id := submit(t, ts, []byte(`{"name":"tab1"}`))
	events := readSSE(t, ts, id)
	if len(events) < 2 {
		t.Fatalf("event stream %v, want at least queued+terminal", events)
	}
	if events[0].Type != "queued" {
		t.Errorf("first event %q, want queued", events[0].Type)
	}
	if last := events[len(events)-1].Type; last != "done" {
		t.Fatalf("last event %q, want done", last)
	}

	st := getStatus(t, ts, id)
	if st.State != server.StateDone || st.Name != "tab1" {
		t.Fatalf("status = %+v, want done tab1", st)
	}
	var res server.JobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	// tab1 is the analytic tuning decision table; its report is the
	// same text "stcc-paper -exp tab1" prints.
	if !strings.Contains(res.Report, "throttling") {
		t.Errorf("tab1 report %q does not look like the decision table", res.Report)
	}

	id2 := submit(t, ts, []byte(`{"name":"tab1"}`))
	if id2 == id {
		t.Fatalf("second submission reused job id %s", id)
	}
	st2 := waitTerminal(t, ts, id2)
	if !bytes.Equal(st.Result, st2.Result) {
		t.Errorf("re-submission result differs:\n first %s\nsecond %s", st.Result, st2.Result)
	}
}

// TestRegistryJobPointEventsCoverGrid submits fig3 by name — the entry
// whose grid merges both deadlock modes — and requires its point events
// to index the job's whole grid: every event's total equals the job's
// point count and each index appears exactly once. The submission is
// built directly so the grid can run at a tiny scale.
func TestRegistryJobPointEventsCoverGrid(t *testing.T) {
	s, ts := newTestServer(t, server.Config{})
	e, _ := experiments.Lookup("fig3")
	scale := experiments.Scale{Warmup: 50, Measure: 100}
	job, err := s.Manager().Submit(&experiments.Submission{Name: "fig3", ScaleName: "tiny", Scale: scale, Spec: e.Spec(scale)})
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, ts, job.ID())
	st := getStatus(t, ts, job.ID())
	if st.State != server.StateDone || st.Points != 48 || st.PointsDone != 48 {
		t.Fatalf("status = %+v, want done with 48/48 points", st)
	}
	seen := make(map[int]int)
	for _, ev := range events {
		if ev.Type != "point" {
			continue
		}
		var payload server.Event
		if err := json.Unmarshal([]byte(ev.Data), &payload); err != nil {
			t.Fatal(err)
		}
		if payload.Point.Total != st.Points {
			t.Errorf("point event total %d, want the job's %d points", payload.Point.Total, st.Points)
		}
		seen[payload.Point.Index]++
	}
	for i := 0; i < st.Points; i++ {
		if seen[i] != 1 {
			t.Errorf("point index %d seen %d times, want once", i, seen[i])
		}
	}
	if len(seen) != st.Points {
		t.Errorf("%d distinct point indices, want %d", len(seen), st.Points)
	}
}

// TestSpecResubmissionServedFromCache is the acceptance-criterion path:
// the same spec submitted twice yields bit-identical result JSON, with
// every point of the second job served from the result cache.
func TestSpecResubmissionServedFromCache(t *testing.T) {
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Cache: cache})
	body := tinySpecJSON(t)

	first := waitTerminal(t, ts, submit(t, ts, body))
	if first.State != server.StateDone {
		t.Fatalf("first job = %+v", first)
	}
	if first.CacheHit || first.CacheHits != 0 {
		t.Fatalf("first job reported cache hits: %+v", first)
	}
	if first.Points != 2 || first.PointsDone != 2 {
		t.Fatalf("first job points = %d/%d, want 2/2", first.PointsDone, first.Points)
	}

	second := waitTerminal(t, ts, submit(t, ts, body))
	if second.State != server.StateDone {
		t.Fatalf("second job = %+v", second)
	}
	if !second.CacheHit {
		t.Errorf("second job cacheHit = false, want true: %+v", second)
	}
	if second.CacheHits != 2 {
		t.Errorf("second job cache_hits = %d, want 2", second.CacheHits)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Errorf("cached result JSON differs from fresh run:\n first %s\nsecond %s",
			first.Result, second.Result)
	}
	if first.Fingerprint == "" || first.Fingerprint != second.Fingerprint {
		t.Errorf("spec fingerprints %q vs %q, want equal and non-empty",
			first.Fingerprint, second.Fingerprint)
	}

	// The SSE trace of the cached job marks every point a cache hit.
	for _, ev := range readSSE(t, ts, second.ID) {
		if ev.Type != "point" {
			continue
		}
		if !strings.Contains(ev.Data, `"cacheHit":true`) {
			t.Errorf("cached job point event %s, want cacheHit", ev.Data)
		}
	}
}

// TestCancelRunningJob cancels a long simulation mid-flight and checks
// it unwinds promptly into the canceled state.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})

	slow := tinyConfig(1)
	slow.MeasureCycles = 200_000_000 // minutes if left alone
	body, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, body)

	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, id).State == server.StateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st := waitTerminal(t, ts, id)
	if st.State != server.StateCanceled {
		t.Fatalf("state after cancel = %q, want %q", st.State, server.StateCanceled)
	}
	if len(st.Result) != 0 {
		t.Errorf("canceled job has a result: %s", st.Result)
	}
}

// rendezvousStore returns no Get until every expected caller has
// looked its fingerprint up, so jobs that look up one fingerprint all
// miss before any of them files its result.
type rendezvousStore struct {
	resultcache.Store
	arrived sync.WaitGroup
}

func (s *rendezvousStore) Get(fp string) (sim.Result, bool, error) {
	res, hit, err := s.Store.Get(fp)
	s.arrived.Done()
	s.arrived.Wait()
	return res, hit, err
}

// TestConcurrentIdenticalJobsShareStore runs two identical jobs that
// miss the shared result store at the same moment: each simulates the
// point and files it. Both must finish with byte-identical results, and
// the two Puts of one fingerprint must leave a single entry.
func TestConcurrentIdenticalJobsShareStore(t *testing.T) {
	fs, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &rendezvousStore{Store: fs}
	store.arrived.Add(2)
	_, ts := newTestServer(t, server.Config{Cache: store, JobWorkers: 2})

	body, err := json.Marshal(tinyConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	id1 := submit(t, ts, body)
	id2 := submit(t, ts, body)
	st1 := waitTerminal(t, ts, id1)
	st2 := waitTerminal(t, ts, id2)
	for _, st := range []server.JobStatus{st1, st2} {
		if st.State != server.StateDone || st.CacheHits != 0 || st.CacheHit {
			t.Fatalf("job %s: state %q (error %q), cache_hits %d, cacheHit %v; want done and simulated",
				st.ID, st.State, st.Error, st.CacheHits, st.CacheHit)
		}
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Errorf("identical submissions returned different results:\n%s\n%s", st1.Result, st2.Result)
	}
	if n := cacheEntries(t, ts); n != 1 {
		t.Errorf("store entries after two identical jobs = %d, want 1", n)
	}
}

// TestJobsListOrdered submits several jobs and checks /v1/jobs returns
// them in submission order.
func TestJobsListOrdered(t *testing.T) {
	_, ts := newTestServer(t, server.Config{JobWorkers: -1, QueueDepth: 8})
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, submit(t, ts, []byte(`{"name":"tab1"}`)))
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(list.Jobs), len(want))
	}
	for i, st := range list.Jobs {
		if st.ID != want[i] {
			t.Errorf("jobs[%d] = %s, want %s", i, st.ID, want[i])
		}
	}
}

// TestMetricsCounters checks the counter roll-up on the /metrics page
// after a mixed workload: two identical jobs, the second served from
// the cache, which hold one copy of their result payload.
func TestMetricsCounters(t *testing.T) {
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Cache: cache})
	body := tinySpecJSON(t)
	first := waitTerminal(t, ts, submit(t, ts, body))
	second := waitTerminal(t, ts, submit(t, ts, body))
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("identical jobs returned different results:\n%s\n%s", first.Result, second.Result)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text exposition", ct)
	}
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(page), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[name] = v
	}
	for name, want := range map[string]float64{
		"stcc_jobs_submitted_total":    2,
		"stcc_jobs_done_total":         2,
		"stcc_jobs_running":            0,
		"stcc_points_total":            4,
		"stcc_points_simulated_total":  2,
		"stcc_points_cache_hits_total": 2,
		"stcc_results_held_bytes":      float64(len(first.Result)),
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if up := samples["stcc_uptime_seconds"]; up <= 0 {
		t.Errorf("stcc_uptime_seconds = %v, want positive", up)
	}
	for _, want := range []string{
		"# HELP stcc_points_total",
		"# TYPE stcc_points_total counter",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics page missing %q:\n%s", want, page)
		}
	}
	if strings.Contains(string(page), "stcc_points_shared_total") {
		t.Errorf("/metrics still exposes the shared-point counter:\n%s", page)
	}
}

// cacheEntries reads the entry count GET /v1/cache reports.
func cacheEntries(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Entries int `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.Entries
}

// TestCacheEndpoints requires the result store to be unwritable over
// HTTP. A forged result PUT under a real configuration's fingerprint
// must be refused and never filed, so a job for that configuration
// simulates it and returns exactly what sim.Run does; GET /v1/cache
// then counts the job's own point.
func TestCacheEndpoints(t *testing.T) {
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Cache: cache})

	cfg := tinyConfig(5)
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+fp,
		strings.NewReader(`{"AcceptedFlits": 123.456}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		t.Errorf("PUT of a forged result = %d, want it refused", resp.StatusCode)
	}
	if n := cacheEntries(t, ts); n != 0 {
		t.Errorf("cache entries after the forged PUT = %d, want 0", n)
	}

	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, ts, submit(t, ts, body))
	if st.State != server.StateDone || st.CacheHits != 0 || st.CacheHit {
		t.Fatalf("job state %q (error %q), cache_hits %d, cacheHit %v; want done with no cache hits",
			st.State, st.Error, st.CacheHits, st.CacheHit)
	}
	var payload server.JobResult
	if err := json.Unmarshal(st.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Groups) != 1 || len(payload.Groups[0]) != 1 {
		t.Fatalf("job result groups %v, want one point", payload.Groups)
	}
	want, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(payload.Groups[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("job result differs from sim.Run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if n := cacheEntries(t, ts); n != 1 {
		t.Errorf("cache entries after the job = %d, want 1", n)
	}
}
