package server

import (
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
	simulated atomic.Int64 // points that ran a fresh local simulation

	// resultBytes is the bytes of finished-job payloads the manager
	// holds, each shared copy once; it changes under the manager's mu.
	resultBytes atomic.Int64
}

func newMetrics() *metrics { return &metrics{} }

// pointDone classifies one completed point.
func (m *metrics) pointDone(ev experiments.PointEvent) {
	m.points.Add(1)
	if ev.CacheHit {
		m.cacheHits.Add(1)
	} else {
		m.simulated.Add(1)
	}
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

// promSamples reads the server's counters into exposition samples.
func (s *Server) promSamples() []promSample {
	m := s.manager.met
	return []promSample{
		{"stcc_uptime_seconds", "Seconds since the daemon started.", "gauge", time.Since(s.start).Seconds()},
		{"stcc_queue_depth", "Jobs waiting for a worker.", "gauge", float64(s.manager.QueueDepth())},
		{"stcc_jobs_submitted_total", "Jobs accepted into the queue.", "counter", float64(m.submitted.Load())},
		{"stcc_jobs_rejected_total", "Jobs refused with 429 (queue full).", "counter", float64(m.rejected.Load())},
		{"stcc_jobs_done_total", "Jobs finished successfully.", "counter", float64(m.done.Load())},
		{"stcc_jobs_failed_total", "Jobs finished in error.", "counter", float64(m.failed.Load())},
		{"stcc_jobs_canceled_total", "Jobs canceled while queued or running.", "counter", float64(m.canceled.Load())},
		{"stcc_jobs_running", "Jobs executing right now.", "gauge", float64(m.running.Load())},
		{"stcc_points_total", "Grid points completed from any source.", "counter", float64(m.points.Load())},
		{"stcc_points_cache_hits_total", "Points served by the result cache.", "counter", float64(m.cacheHits.Load())},
		{"stcc_points_simulated_total", "Points that ran a fresh local simulation.", "counter", float64(m.simulated.Load())},
		{"stcc_results_held_bytes", "Bytes of finished-job result payloads held, each shared payload once.", "gauge", float64(m.resultBytes.Load())},
	}
}

// handleMetricsProm renders the counters in Prometheus text exposition
// format 0.0.4 — hand-rolled, since the repo takes no dependencies; the
// format is three line shapes (# HELP, # TYPE, sample) and the
// server's metric names need no escaping.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	for _, sm := range s.promSamples() {
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
