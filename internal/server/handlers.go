package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/version"
)

// maxSubmissionBytes bounds a POST /v1/jobs body. The largest real
// submission (an emit-spec'd full-scale grid) is a few tens of KB.
const maxSubmissionBytes = 1 << 20

// routes wires the API onto the server's mux using Go 1.22 method +
// wildcard patterns.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/cache", s.handleCacheStats)
	s.mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
}

// writeJSON renders one response body as compact JSON: a finished
// job's pre-encoded result is copied through as it is, not re-indented.
// Encoding a value we constructed cannot fail in practice; an error here
// means the connection died.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitResponse is the 202 body of POST /v1/jobs.
type submitResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Name   string `json:"name"`
	Points int    `json:"points"`
	// StatusURL and EventsURL save the client from building paths.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmissionBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSubmissionBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			"submission exceeds %d bytes", maxSubmissionBytes)
		return
	}
	sub, err := experiments.ParseSubmission(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.manager.Submit(sub)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	st := j.Status()
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:        st.ID,
		State:     st.State,
		Name:      st.Name,
		Points:    st.Points,
		StatusURL: "/v1/jobs/" + st.ID,
		EventsURL: "/v1/jobs/" + st.ID + "/events",
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.manager.Jobs()})
}

// lookupJob returns the job the request path names, or answers 404
// (naming the eviction when the job was evicted).
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.manager.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "%s", s.manager.notFound(id))
	}
	return j, ok
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		s.manager.Cancel(j)
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// registryEntry is one row of GET /v1/registry.
type registryEntry struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	About string `json:"about"`
	// QuickPoints is the grid size at the default "quick" scale (zero
	// for analytic entries) — a cost hint before submitting.
	QuickPoints int `json:"quick_points"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	names := experiments.Names()
	entries := make([]registryEntry, 0, len(names))
	for _, name := range names {
		e, _ := experiments.Lookup(name)
		entries = append(entries, registryEntry{
			Name:        e.Name,
			Title:       e.Title,
			About:       e.About,
			QuickPoints: e.Spec(experiments.Quick).NumPoints(),
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Experiments []registryEntry `json:"experiments"`
	}{Experiments: entries})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, version.Get())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// handleCacheStats reports the store's entry count — a cheap check
// for scripts that a job's points were filed.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if s.manager.cfg.Cache == nil {
		writeError(w, http.StatusNotFound, "no result store attached")
		return
	}
	n, err := s.manager.cfg.Cache.Len()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Entries int `json:"entries"`
	}{Entries: n})
}
