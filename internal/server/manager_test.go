package server

import (
	"testing"

	"repro/internal/experiments"
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
