package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// metrics is the server's counter set. Plain atomics rather than the
// expvar package: expvar registers into a process-global map and
// panics on duplicate names, which would forbid constructing two
// servers in one test binary.
type metrics struct {
	submitted atomic.Int64 // jobs accepted into the queue
	rejected  atomic.Int64 // jobs refused with 429
	done      atomic.Int64 // jobs finished successfully
	failed    atomic.Int64 // jobs finished in error
	canceled  atomic.Int64 // jobs canceled (queued or running)
	running   atomic.Int64 // jobs executing right now

	points    atomic.Int64 // grid points completed (any source)
	cacheHits atomic.Int64 // points served by the result cache
	shared    atomic.Int64 // points adopted from an in-flight twin
	simulated atomic.Int64 // points that ran a fresh local simulation
}

func newMetrics() *metrics { return &metrics{} }

// pointDone classifies one completed point. A point a Flight follower
// adopts from its leader's cache hit carries both flags and counts once,
// as a cache hit.
func (m *metrics) pointDone(ev experiments.PointEvent) {
	m.points.Add(1)
	switch {
	case ev.CacheHit:
		m.cacheHits.Add(1)
	case ev.Shared:
		m.shared.Add(1)
	default:
		m.simulated.Add(1)
	}
}

// Metrics is the GET /metrics.json body. The Prometheus endpoint
// exposes the same numbers under stcc_-prefixed names.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsRunning   int64 `json:"jobs_running"`

	Points       int64 `json:"points"`
	CacheHits    int64 `json:"cache_hits"`
	SharedPoints int64 `json:"shared_points"`
	Simulated    int64 `json:"simulated"`
	// PointsPerSec is completed points over process uptime — a coarse
	// throughput gauge, not a moving average.
	PointsPerSec float64 `json:"points_per_sec"`
}

// snapshot assembles the exported counter view.
func (s *Server) snapshot() Metrics {
	m := s.manager.met
	up := time.Since(s.start).Seconds()
	points := m.points.Load()
	out := Metrics{
		UptimeSeconds: up,
		QueueDepth:    s.manager.QueueDepth(),
		JobsSubmitted: m.submitted.Load(),
		JobsRejected:  m.rejected.Load(),
		JobsDone:      m.done.Load(),
		JobsFailed:    m.failed.Load(),
		JobsCanceled:  m.canceled.Load(),
		JobsRunning:   m.running.Load(),
		Points:        points,
		CacheHits:     m.cacheHits.Load(),
		SharedPoints:  m.shared.Load(),
		Simulated:     m.simulated.Load(),
	}
	if up > 0 {
		out.PointsPerSec = float64(points) / up
	}
	return out
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot())
}

// promSample is one exposition-format metric: name, HELP text, TYPE,
// and value. Samples are emitted in declaration order — the format has
// no ordering requirement, but a stable page is diffable and testable.
type promSample struct {
	name  string
	help  string
	typ   string // "counter" or "gauge"
	value float64
}

// promSamples flattens a Metrics snapshot into exposition samples.
func promSamples(m Metrics) []promSample {
	return []promSample{
		{"stcc_uptime_seconds", "Seconds since the daemon started.", "gauge", m.UptimeSeconds},
		{"stcc_queue_depth", "Jobs waiting for a worker.", "gauge", float64(m.QueueDepth)},
		{"stcc_jobs_submitted_total", "Jobs accepted into the queue.", "counter", float64(m.JobsSubmitted)},
		{"stcc_jobs_rejected_total", "Jobs refused with 429 (queue full).", "counter", float64(m.JobsRejected)},
		{"stcc_jobs_done_total", "Jobs finished successfully.", "counter", float64(m.JobsDone)},
		{"stcc_jobs_failed_total", "Jobs finished in error.", "counter", float64(m.JobsFailed)},
		{"stcc_jobs_canceled_total", "Jobs canceled while queued or running.", "counter", float64(m.JobsCanceled)},
		{"stcc_jobs_running", "Jobs executing right now.", "gauge", float64(m.JobsRunning)},
		{"stcc_points_total", "Grid points completed from any source.", "counter", float64(m.Points)},
		{"stcc_points_cache_hits_total", "Points served by the result cache.", "counter", float64(m.CacheHits)},
		{"stcc_points_shared_total", "Points adopted from an in-flight twin (singleflight).", "counter", float64(m.SharedPoints)},
		{"stcc_points_simulated_total", "Points that ran a fresh local simulation.", "counter", float64(m.Simulated)},
	}
}

// handleMetricsProm renders the counters in Prometheus text exposition
// format 0.0.4 — hand-rolled, since the repo takes no dependencies; the
// format is three line shapes (# HELP, # TYPE, sample) and the
// server's metric names need no escaping.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	for _, sm := range promSamples(s.snapshot()) {
		fmt.Fprintf(&b, "# HELP %s %s\n", sm.name, sm.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", sm.name, sm.typ)
		fmt.Fprintf(&b, "%s %s\n", sm.name, formatPromValue(sm.value))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// formatPromValue renders a sample value the way Prometheus clients
// expect: integers without an exponent, floats in Go's shortest form.
func formatPromValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
