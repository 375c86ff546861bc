package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/resultcache/fsstore"
	"repro/internal/sim"
)

func newCache(t *testing.T) *fsstore.Store {
	t.Helper()
	c, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A cached grid must reproduce a fresh run bit-for-bit: first execution
// populates the cache, the second is served from it, and both equal the
// cacheless runner's results under JSON encoding (the determinism-golden
// representation).
func TestRunSpecCacheHitsAreBitIdentical(t *testing.T) {
	spec := tinySpec()
	fresh, err := Runner{}.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	cache := newCache(t)
	cached := Runner{Cache: cache}
	first, err := cached.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cache.Len(); err != nil || n != spec.NumPoints() {
		t.Fatalf("cache holds %d entries (err=%v), want %d", n, err, spec.NumPoints())
	}
	second, err := cached.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string][][]sim.Result{"first": first, "second": second} {
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s cached run differs from fresh run", name)
		}
	}
}

// A partially populated cache resumes: pre-running a subset leaves only
// the missing points to simulate, and the combined results still match.
func TestPartialGridResumes(t *testing.T) {
	spec := tinySpec()
	cache := newCache(t)
	runner := Runner{Cache: cache}

	// Pre-populate just the first group's points.
	sub := NewSpec(spec.Name, spec.Title)
	sub.Groups = spec.Groups[:1]
	if _, err := runner.RunSpec(sub); err != nil {
		t.Fatal(err)
	}
	pre, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Groups[0].Points); pre != want {
		t.Fatalf("cache holds %d entries after partial run, want %d", pre, want)
	}

	full, err := runner.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := cache.Len(); n != spec.NumPoints() {
		t.Fatalf("cache holds %d entries after resume, want %d", n, spec.NumPoints())
	}
	fresh, err := Runner{}.RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, fresh) {
		t.Error("resumed grid differs from fresh grid")
	}
}

// Configurations that cannot be fingerprinted (live schedules) must run
// rather than fail when a cache is attached.
func TestUnserializableConfigBypassesCache(t *testing.T) {
	s := Scale{Warmup: 100, Measure: 400, BurstLow: 100, BurstHigh: 100}
	sched, err := burstySchedule(s).Build(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(s)
	cfg.K = 4
	cfg.Schedule = sched
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = sched.TotalDuration()
	if _, err := cfg.Fingerprint(); err == nil {
		t.Fatal("live-schedule config unexpectedly fingerprints; test premise broken")
	}

	cache := newCache(t)
	spec := NewSpec("live", "live schedule")
	spec.AddGroup("", Point{Label: "live", Config: cfg})
	if _, err := (Runner{Cache: cache}).RunSpec(spec); err != nil {
		t.Fatalf("cache-attached run of unserializable config failed: %v", err)
	}
	if n, _ := cache.Len(); n != 0 {
		t.Errorf("unserializable config left %d cache entries, want 0", n)
	}
}
