package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultcache/fsstore"
	"repro/internal/sim"
)

// A job reports cacheHit, in its status and its done event, exactly
// when every point it completed came from the result cache.
func TestRecordPointCacheHitShared(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []experiments.PointEvent
		want   bool
	}{
		{"all cache hits", []experiments.PointEvent{{CacheHit: true}, {CacheHit: true}}, true},
		{"one fresh point", []experiments.PointEvent{{CacheHit: true}, {}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(Config{JobWorkers: -1})
			j := &Job{sub: &experiments.Submission{}, state: StateRunning, notify: make(chan struct{})}
			for _, ev := range tc.events {
				j.recordPoint(ev)
			}
			m.finish(j, JobResult{}, nil)
			st := j.Status()
			if st.State != StateDone || st.PointsDone != len(tc.events) {
				t.Fatalf("status = %+v, want done with %d points", st, len(tc.events))
			}
			if st.CacheHit != tc.want {
				t.Errorf("status cacheHit = %v, want %v", st.CacheHit, tc.want)
			}
			if done := j.events[len(j.events)-1]; done.Type != StateDone || done.CacheHit != tc.want {
				t.Errorf("done event = %+v, want cacheHit %v", done, tc.want)
			}
		})
	}
}

// The manager holds the newest keepFinished finished jobs and evicts
// the oldest past that. An evicted id answers 404 on status, events and
// cancel, naming the eviction and the result cache; GET /v1/jobs lists
// what is held.
func TestFinishedJobsEvictOldest(t *testing.T) {
	const extra = 3
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: cache, QueueDepth: keepFinished + extra, JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	cfg := sim.NewConfig()
	cfg.K, cfg.WarmupCycles, cfg.MeasureCycles, cfg.Rate = 4, 100, 400, 0.005
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One job worker runs the queue in order, so jobs finish in
	// submission order; every job after the first is a cache hit.
	ids := make([]string, keepFinished+extra)
	for i := range ids {
		sub, err := experiments.ParseSubmission(body)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.manager.Submit(sub)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.id
	}
	last, _ := s.manager.Lookup(ids[len(ids)-1])
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		s.manager.mu.Lock()
		retired := len(s.manager.finished)
		s.manager.mu.Unlock()
		if retired == keepFinished && terminal(last.Status().State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs did not finish: %d retired", retired)
		}
	}

	get := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	for i, id := range ids {
		if i >= extra {
			if code, body := get("GET", "/v1/jobs/"+id); code != http.StatusOK {
				t.Fatalf("held job %s = %d: %s", id, code, body)
			}
			continue
		}
		for _, req := range []struct{ method, path string }{
			{"GET", "/v1/jobs/" + id}, {"GET", "/v1/jobs/" + id + "/events"}, {"DELETE", "/v1/jobs/" + id},
		} {
			code, body := get(req.method, req.path)
			if code != http.StatusNotFound || !strings.Contains(body, "evicted") || !strings.Contains(body, "result cache") {
				t.Errorf("%s %s = %d %s, want 404 naming the eviction", req.method, req.path, code, body)
			}
		}
	}
	if code, body := get("GET", "/v1/jobs/job-999999"); code != http.StatusNotFound || strings.Contains(body, "evicted") {
		t.Errorf("never-issued id = %d %s, want a plain 404", code, body)
	}

	code, raw := get("GET", "/v1/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(raw), &list); err != nil || code != http.StatusOK {
		t.Fatalf("GET /v1/jobs = %d: %v", code, err)
	}
	if len(list.Jobs) != keepFinished || list.Jobs[0].ID != ids[extra] {
		t.Errorf("listed %d jobs from %s, want %d from %s", len(list.Jobs), list.Jobs[0].ID, keepFinished, ids[extra])
	}
}

// waitRetired waits until m has retired n jobs.
func waitRetired(t *testing.T, m *Manager, n int) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		m.mu.Lock()
		retired := len(m.finished)
		m.mu.Unlock()
		if retired == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs retired, want %d", retired, n)
		}
	}
}

// Finished jobs of one config whose payloads are byte-identical hold one
// copy of it, and that copy is what the job run alone returns; a
// different config keeps its own, and so does a job whose spec
// fingerprint matches but whose bytes do not. Once keepFinished newer
// jobs evict them, their copies leave the table, and the held-bytes
// gauge counts only the jobs still held.
func TestFinishedJobsShareResult(t *testing.T) {
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	encode := func(v any) []byte {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cfg := sim.NewConfig()
	cfg.K, cfg.WarmupCycles, cfg.MeasureCycles, cfg.Rate = 4, 100, 400, 0.005
	a := encode(cfg)
	cfg.Seed = 2
	b := encode(cfg)
	// A registry reference and the spec it names share a spec
	// fingerprint, but their payloads name the experiment and the spec
	// differently.
	ref := []byte(`{"name":"tab1"}`)
	refSub, err := experiments.ParseSubmission(ref)
	if err != nil {
		t.Fatal(err)
	}
	spec := encode(refSub.Spec)

	// run submits the bodies in order to m's one job worker and returns
	// each job's final status.
	run := func(m *Manager, bodies ...[]byte) []JobStatus {
		t.Helper()
		t.Cleanup(func() {
			if err := m.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		jobs := make([]*Job, len(bodies))
		for i, body := range bodies {
			sub, err := experiments.ParseSubmission(body)
			if err != nil {
				t.Fatal(err)
			}
			if jobs[i], err = m.Submit(sub); err != nil {
				t.Fatal(err)
			}
		}
		waitRetired(t, m, len(jobs))
		out := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			out[i] = j.Status()
			if out[i].State != StateDone || len(out[i].Result) == 0 {
				t.Fatalf("job %d ended %s (%s) with %d result bytes", i, out[i].State, out[i].Error, len(out[i].Result))
			}
		}
		return out
	}

	m := newManager(Config{Cache: cache, JobWorkers: 1})
	held := run(m, a, a, b, ref, spec)
	if &held[0].Result[0] != &held[1].Result[0] {
		t.Error("two identical jobs hold two copies of their result")
	}
	if &held[2].Result[0] == &held[0].Result[0] {
		t.Error("a different config shares the first config's result")
	}
	if held[3].Fingerprint != held[4].Fingerprint || bytes.Equal(held[3].Result, held[4].Result) {
		t.Fatalf("registry reference and spec: fingerprints %s and %s, results equal %v; want one fingerprint, two payloads",
			held[3].Fingerprint, held[4].Fingerprint, bytes.Equal(held[3].Result, held[4].Result))
	}
	alone := run(newManager(Config{JobWorkers: 1}), a, b)
	if !bytes.Equal(held[0].Result, alone[0].Result) || !bytes.Equal(held[2].Result, alone[1].Result) {
		t.Errorf("held results differ from unshared runs:\n%s\n%s\nwant\n%s\n%s",
			held[0].Result, held[2].Result, alone[0].Result, alone[1].Result)
	}
	m.mu.Lock()
	entries := len(m.results)
	m.mu.Unlock()
	want := int64(len(held[0].Result) + len(held[2].Result) + len(held[3].Result) + len(held[4].Result))
	if got := m.met.resultBytes.Load(); entries != 3 || got != want {
		t.Errorf("table holds %d payloads and the gauge %d B, want 3 and %d B", entries, got, want)
	}

	// Newer jobs whose spec has no fingerprint never share, so once they
	// evict the first five, the table is empty.
	filler := JobResult{Report: "filler"}
	for i := 0; i < keepFinished; i++ {
		j := &Job{id: fmt.Sprintf("filler-%d", i), state: StateRunning, notify: make(chan struct{})}
		m.finish(j, filler, nil)
		m.retire(j)
	}
	m.mu.Lock()
	entries = len(m.results)
	m.mu.Unlock()
	want = int64(keepFinished * len(encode(filler)))
	if got := m.met.resultBytes.Load(); entries != 0 || got != want {
		t.Errorf("after eviction the table holds %d payloads and the gauge %d B, want none and %d B", entries, got, want)
	}
}
