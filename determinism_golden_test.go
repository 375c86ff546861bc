// Determinism regression gate for the zero-allocation hot path.
//
// The packet free list, the arena-backed router state, and the ring-deque
// source queues are pure memory-layout changes: they must not perturb a
// single scheduling decision. These tests pin the simulator to golden
// fingerprints captured from the seed engine (pre-pooling, pre-arena), so
// any future "optimization" that changes simulated behavior — reuse-order
// dependence, iteration-order dependence, stale state surviving a packet
// reset — fails loudly instead of silently shifting every result.
// The tests live in the external test package: they drive the engine
// only through importable API (sim, experiments, server).
package stcc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/resultcache/fsstore"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/sim"
)

// resultFingerprint hashes the full JSON encoding of a Result: every
// statistic, series sample, and trace row contributes, so two runs agree
// only if they agree cycle for cycle. It panics rather than taking a
// *testing.T because it also runs on experiment-runner worker goroutines,
// where FailNow is not allowed.
func resultFingerprint(r sim.Result) string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenCase is one pinned configuration. The fingerprints were captured
// from the seed engine (commit 383a7bf, before packet pooling and the
// router arena) on a 8-ary 2-cube at rate 0.05, seed 3; the pooled engine
// must reproduce them bit for bit.
type goldenCase struct {
	name string
	want string
	mut  func(*sim.Config)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		// Recovery mode past the deadlock threshold: 33 Disha recoveries,
		// so the fingerprint covers the drain path recycling packets
		// mid-recovery.
		{"base-recovery", "5e65aff289db3e1c",
			func(c *sim.Config) { c.Scheme = sim.Scheme{Kind: sim.Base} }},
		// Self-tuned with the decision trace kept: the fingerprint covers
		// the side-band, estimator, tuner, and trace rows.
		{"tune-recovery", "f5503dcc86d2f5b3",
			func(c *sim.Config) { c.Scheme = sim.Scheme{Kind: sim.SelfTuned, KeepTrace: true} }},
		// Duato avoidance: escape-lane routing, zero recoveries.
		{"tune-avoidance", "8cbecb82ea79b2dd",
			func(c *sim.Config) {
				c.Mode = router.Avoidance
				c.Scheme = sim.Scheme{Kind: sim.SelfTuned}
			}},
		// ALO baseline: the fingerprint covers the free-VC admission test
		// in the injection path (19 recoveries at this load).
		{"alo-recovery", "1fd22738f97075c1",
			func(c *sim.Config) { c.Scheme = sim.Scheme{Kind: sim.ALO} }},
		// Busy-VC counting baseline at its default limit: covers the busy
		// output-VC census each injection consults.
		{"busyvc-recovery", "3a4764ea7dd2ed8e",
			func(c *sim.Config) { c.Scheme = sim.Scheme{Kind: sim.BusyVC} }},
		// Static global threshold at 120 full buffers: covers the
		// side-band gather and fixed-threshold throttle without the tuner.
		{"static-recovery", "d5d669780f9c2c24",
			func(c *sim.Config) {
				c.Scheme = sim.Scheme{Kind: sim.StaticGlobal, StaticThreshold: 120}
			}},
		// AIMD window controller: the fingerprint covers the DECbit
		// marking path (router occupancy fold, cycle-stable snapshot,
		// header marks) and the per-source window state machine fed by
		// the injection/delivery feedback events.
		{"aimd-recovery", "16c6f2bad737ca24",
			func(c *sim.Config) { c.Scheme = sim.Scheme{Kind: sim.AIMD} }},
		// Notification-based throttling: the fingerprint additionally
		// covers the side-band notification wheel (rising-edge broadcast,
		// hop-delay-scaled delivery) and staleness-gated injection.
		{"notify-recovery", "8a1f4217cb170064",
			func(c *sim.Config) { c.Scheme = sim.Scheme{Kind: sim.Notify} }},
	}
}

func goldenConfig(gc goldenCase) sim.Config {
	cfg := sim.NewConfig()
	cfg.K, cfg.N = 8, 2
	cfg.VCs, cfg.BufDepth = 3, 4
	cfg.PacketLength = 8
	cfg.DeadlockTimeout = 64
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 2400
	cfg.Rate = 0.05
	cfg.Seed = 3
	gc.mut(&cfg)
	return cfg
}

// TestDeterminismGoldenFingerprints checks the pooled, arena-backed
// engine against the seed engine's fingerprints.
func TestDeterminismGoldenFingerprints(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			r, err := sim.Run(goldenConfig(gc))
			if err != nil {
				t.Fatal(err)
			}
			if got := resultFingerprint(r); got != gc.want {
				t.Errorf("fingerprint %s, want seed-engine golden %s (recoveries %d, delivered %d)",
					got, gc.want, r.Recoveries, r.PacketsDelivered)
			}
		})
	}
}

// TestDeterminismAcrossWorkerCounts runs the golden grid through the
// experiment runner at Workers=1 and Workers=8 and requires identical
// fingerprints: per-engine free lists must keep results independent of
// how simulations are scheduled onto goroutines.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cases := goldenCases()
	run := func(workers int) []string {
		fps := make([]string, len(cases))
		err := experiments.Runner{Workers: workers}.ForEach(len(cases), func(i int) error {
			r, err := sim.Run(goldenConfig(cases[i]))
			if err != nil {
				return err
			}
			fps[i] = resultFingerprint(r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fps
	}
	serial := run(1)
	wide := run(8)
	for i, gc := range cases {
		if serial[i] != wide[i] {
			t.Errorf("%s: Workers=1 fingerprint %s != Workers=8 fingerprint %s",
				gc.name, serial[i], wide[i])
		}
		if serial[i] != gc.want {
			t.Errorf("%s: runner fingerprint %s, want golden %s", gc.name, serial[i], gc.want)
		}
	}
}

// TestDeterminismThroughReusedEngines runs the golden grid as one spec
// on a single Runner worker, forward and reversed, so every point but
// the first is built in the storage of the engine before it — a
// different scheme, deadlock mode or marking setting each time — and
// requires every golden fingerprint.
func TestDeterminismThroughReusedEngines(t *testing.T) {
	reversed := goldenCases()
	slices.Reverse(reversed)
	for _, cases := range [][]goldenCase{goldenCases(), reversed} {
		spec := experiments.NewSpec("goldens", "determinism golden grid")
		for _, gc := range cases {
			spec.AddGroup(gc.name, experiments.Point{Label: gc.name, Config: goldenConfig(gc)})
		}
		grouped, err := experiments.Runner{Workers: 1}.RunSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, gc := range cases {
			if got := resultFingerprint(grouped[i][0]); got != gc.want {
				t.Errorf("%s (run %d of %d on one worker): fingerprint %s, want golden %s",
					gc.name, i+1, len(cases), got, gc.want)
			}
		}
	}
}

// TestShardFieldsAcceptedAndIgnored pins the wire contract for the
// shard_workers and shard_dispatch fields: a config carrying them
// marshals, re-parses and validates, content-addresses like the same
// config without them, and reproduces the serial golden result. The
// rows are the feedback-driven controllers, whose DECbit marking and
// notification paths are the most order-sensitive state in a run.
func TestShardFieldsAcceptedAndIgnored(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.name != "aimd-recovery" && gc.name != "notify-recovery" {
			continue
		}
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			plain := goldenConfig(gc)
			cfg := plain
			cfg.ShardWorkers = 8
			cfg.ShardDispatch = router.DispatchSharded

			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(`"shard_workers":8,"shard_dispatch":"sharded"`)) {
				t.Fatalf("wire form lost the shard fields: %s", data)
			}
			var parsed sim.Config
			if err := json.Unmarshal(data, &parsed); err != nil {
				t.Fatal(err)
			}
			if err := parsed.Validate(); err != nil {
				t.Fatal(err)
			}
			if parsed.ShardWorkers != 8 || parsed.ShardDispatch != router.DispatchSharded {
				t.Fatalf("re-parsed shard fields %d/%v, want 8/sharded", parsed.ShardWorkers, parsed.ShardDispatch)
			}
			want, err := plain.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []sim.Config{cfg, parsed} {
				if got, err := c.Fingerprint(); err != nil || got != want {
					t.Fatalf("config fingerprint %s (err %v), want the unsharded %s", got, err, want)
				}
			}

			r, err := sim.Run(parsed)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultFingerprint(r); got != gc.want {
				t.Errorf("result fingerprint %s, want serial golden %s", got, gc.want)
			}
		})
	}
}

// TestDeterminismThroughResultCache runs the golden grid twice through a
// cache-attached runner. The first pass populates the content-addressed
// cache; the second is served entirely from it. Both must reproduce the
// seed-engine fingerprints, which pins the cache's JSON round trip to
// "bit-identical to a fresh run".
func TestDeterminismThroughResultCache(t *testing.T) {
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	spec := experiments.NewSpec("goldens", "determinism golden grid")
	for _, gc := range cases {
		spec.AddGroup(gc.name, experiments.Point{Label: gc.name, Config: goldenConfig(gc)})
	}
	runner := experiments.Runner{Cache: cache}
	for pass, label := range []string{"fresh", "cached"} {
		grouped, err := runner.RunSpec(spec)
		if err != nil {
			t.Fatalf("%s pass: %v", label, err)
		}
		for i, gc := range cases {
			if got := resultFingerprint(grouped[i][0]); got != gc.want {
				t.Errorf("%s pass: %s fingerprint %s, want golden %s", label, gc.name, got, gc.want)
			}
		}
		if n, err := cache.Len(); err != nil || n != len(cases) {
			t.Fatalf("after pass %d: cache holds %d entries (err=%v), want %d", pass, n, err, len(cases))
		}
	}
}

// TestDeterminismThroughServer submits the golden grid to stcc-serve
// over HTTP and requires the results that come back through the job
// manager, the JSON result payload, and a second, cache-served
// submission to reproduce the seed-engine fingerprints bit for bit:
// the service path must be indistinguishable from a local run. Then
// each golden case goes to a server with one job worker and no cache as
// its own job, so every job after the first builds its engine in the
// storage the job before it left, and each must reproduce its golden.
func TestDeterminismThroughServer(t *testing.T) {
	cache, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := func(cfg server.Config) *httptest.Server {
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		return ts
	}

	cases := goldenCases()
	spec := experiments.NewSpec("goldens", "determinism golden grid")
	for _, gc := range cases {
		spec.AddGroup(gc.name, experiments.Point{Label: gc.name, Config: goldenConfig(gc)})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	runJob := func(ts *httptest.Server, body []byte) server.JobStatus {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := time.Now().Add(60 * time.Second)
		for {
			sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			var st server.JobStatus
			if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			sresp.Body.Close()
			if st.State == server.StateDone {
				return st
			}
			if st.State == server.StateFailed || st.State == server.StateCanceled {
				t.Fatalf("job %s ended %s: %s", sub.ID, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", sub.ID, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	ts := start(server.Config{Cache: cache})
	fresh := runJob(ts, body)
	cached := runJob(ts, body)
	if !cached.CacheHit {
		t.Errorf("second submission cacheHit = false, want fully cache-served")
	}
	if !bytes.Equal(fresh.Result, cached.Result) {
		t.Errorf("cached submission's result JSON differs from the fresh run")
	}
	for pass, st := range []server.JobStatus{fresh, cached} {
		var res server.JobResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != len(cases) {
			t.Fatalf("pass %d: %d result groups, want %d", pass, len(res.Groups), len(cases))
		}
		for i, gc := range cases {
			if got := resultFingerprint(res.Groups[i][0]); got != gc.want {
				t.Errorf("pass %d: %s fingerprint %s, want golden %s", pass, gc.name, got, gc.want)
			}
		}
	}

	serial := start(server.Config{JobWorkers: 1})
	for i, gc := range cases {
		cfg, err := json.Marshal(goldenConfig(gc))
		if err != nil {
			t.Fatal(err)
		}
		var res server.JobResult
		if err := json.Unmarshal(runJob(serial, cfg).Result, &res); err != nil {
			t.Fatal(err)
		}
		if got := resultFingerprint(res.Groups[0][0]); got != gc.want {
			t.Errorf("%s (job %d of %d on one job worker): fingerprint %s, want golden %s",
				gc.name, i+1, len(cases), got, gc.want)
		}
	}
}
