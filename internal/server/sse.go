package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleEvents streams a job's progress as Server-Sent Events. The
// stream replays the job's full event history first (events are
// retained, so late subscribers lose nothing), then follows live
// appends, and ends after the terminal event. Each frame is
//
//	event: <type>
//	data: <Event JSON>
//
// so curl -N renders a readable trace and an EventSource client can
// dispatch on the event name.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	next := 0
	for {
		evs, more, last := j.eventsSince(next)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		next += len(evs)
		fl.Flush()
		if last {
			return
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}
