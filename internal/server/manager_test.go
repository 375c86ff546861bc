package server

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// A point a Flight follower adopts from its leader's cache hit arrives
// with both CacheHit and Shared set. It must count as one served point,
// not two, so a job made only of such points still reports cacheHit.
func TestRecordPointCacheHitShared(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []experiments.PointEvent
		want   bool
	}{
		{"adopted cache hits", []experiments.PointEvent{{CacheHit: true, Shared: true}, {CacheHit: true}}, true},
		{"shared only", []experiments.PointEvent{{Shared: true}}, true},
		{"one fresh point", []experiments.PointEvent{{CacheHit: true, Shared: true}, {}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(Config{JobWorkers: -1})
			j := &Job{sub: &cli.Submission{}, state: StateRunning, notify: make(chan struct{})}
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
