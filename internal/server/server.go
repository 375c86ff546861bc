// Package server implements stcc-serve: a long-lived HTTP/JSON daemon
// that runs experiment submissions on a bounded job queue and streams
// their progress. It turns the one-shot CLI pipeline (spec -> runner ->
// result cache) into shared infrastructure: any client that can speak
// HTTP can submit a registry experiment, a serialized spec, or a bare
// config, poll or stream its progress, and read back results that are
// bit-identical to a local CLI run.
//
// Work is deduplicated once, by the content-addressed result cache
// (resultcache): the engine is deterministic, so a hit is byte-for-byte
// the result a fresh run would produce. Two clients that submit the
// same uncached grid at the same moment each simulate it; their results
// are byte-identical and the store keeps one entry.
//
// The API surface:
//
//	POST   /v1/jobs             submit (registry ref, spec, or config JSON) -> job id
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        status + result JSON
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/jobs/{id}/events SSE stream of per-point progress
//	GET    /v1/cache            result-store stats (entry count)
//	GET    /v1/registry         the experiment catalog (stcc list over HTTP)
//	GET    /v1/version          build provenance (debug.ReadBuildInfo)
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition
//
// Submissions are parsed and run by experiments.Submission, the same
// path "stcc run -spec" takes. Every point a job needs runs in this
// process. The result store is never written over HTTP: only the
// daemon's own runs are filed in it, so a stored result is always one
// this engine produced.
//
// Submissions past the queue's capacity are rejected with 429 so load
// sheds at the edge instead of growing an unbounded backlog, and
// Shutdown drains running jobs before the process exits. The manager
// holds the newest 1024 finished jobs; an evicted job's id answers 404
// naming the eviction.
package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/resultcache"
)

// Config parameterizes a Server.
type Config struct {
	// Cache, when non-nil, is the content-addressed result store shared
	// by all jobs (and with any CLI runs pointed at the same directory).
	// GET /v1/cache reports its entry count.
	Cache resultcache.Store
	// QueueDepth bounds the number of submitted-but-not-started jobs;
	// beyond it, POST /v1/jobs returns 429. Zero means 16.
	QueueDepth int
	// JobWorkers is the number of jobs executing concurrently. Zero
	// means 2; negative means none are started (tests use this to pin
	// jobs in the queued state).
	JobWorkers int
	// PointWorkers caps concurrent simulations within one job, like the
	// CLI -workers flag. Zero means all CPUs.
	PointWorkers int
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

// Server is the HTTP face over a job Manager. Construct with New,
// serve Handler(), and call Shutdown on the way out.
type Server struct {
	manager *Manager
	mux     *http.ServeMux
	start   time.Time
}

// New builds a server and starts its job workers.
func New(cfg Config) *Server {
	s := &Server{
		manager: newManager(cfg),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.routes()
	return s
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job manager (tests submit and cancel directly).
func (s *Server) Manager() *Manager { return s.manager }

// Shutdown stops accepting jobs and drains the queue: running and
// queued jobs get until ctx expires to finish, after which they are
// canceled. Call after (not instead of) http.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error { return s.manager.Shutdown(ctx) }
