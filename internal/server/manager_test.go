package server

import (
	"context"
	"encoding/json"
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
