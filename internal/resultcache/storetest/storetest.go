// Package storetest is the backend-independent conformance suite for
// resultcache.Store implementations. Every backend (fsstore, memstore)
// runs the same suite from its own test file, so the Store contract —
// bit-identical round trips, clean misses, the shared fingerprint gate,
// quarantine-on-corrupt, and safety under concurrent readers, writers,
// and corruption — is pinned once and enforced everywhere, instead of
// drifting per backend.
package storetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/sim"
)

// CorruptFunc injects unparsable bytes under an existing or fresh
// fingerprint, bypassing Put's marshaling — the backend-specific hook
// the quarantine subtests need (write a garbage file, poke the map).
type CorruptFunc func(fingerprint string) error

// Harness adapts one backend to the suite.
type Harness struct {
	// New returns a fresh, empty store and a corruption injector for it.
	// A nil injector skips the quarantine subtests (no backend in this
	// repo returns nil, but the suite stays usable for one that must).
	New func(t *testing.T) (resultcache.Store, CorruptFunc)
}

// fixtures are real engine runs (fingerprint-addressed, with full time
// series) shared across every backend's suite; they are computed once
// per test binary because the suite cares about store semantics, not
// simulation time.
var (
	fixOnce sync.Once
	fixErr  error
	fixFps  []string
	fixRes  []sim.Result
)

func fixtureConfig(seed int64) sim.Config {
	cfg := sim.NewConfig()
	cfg.K = 4
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Rate = 0.005
	cfg.Seed = seed
	return cfg
}

func fixtures(t *testing.T) ([]string, []sim.Result) {
	t.Helper()
	fixOnce.Do(func() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := fixtureConfig(seed)
			fp, err := cfg.Fingerprint()
			if err != nil {
				fixErr = err
				return
			}
			r, err := sim.Run(cfg)
			if err != nil {
				fixErr = err
				return
			}
			fixFps = append(fixFps, fp)
			fixRes = append(fixRes, r)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixFps, fixRes
}

// Run drives the full conformance suite against the backend.
func Run(t *testing.T, h Harness) {
	t.Run("RoundTripBitIdentical", func(t *testing.T) { testRoundTrip(t, h) })
	t.Run("CleanMiss", func(t *testing.T) { testCleanMiss(t, h) })
	t.Run("MalformedFingerprints", func(t *testing.T) { testMalformed(t, h) })
	t.Run("OverwriteIdempotent", func(t *testing.T) { testOverwrite(t, h) })
	t.Run("CorruptEntryQuarantinedAsMiss", func(t *testing.T) { testQuarantine(t, h) })
	t.Run("ConcurrentPutGetCorruptStress", func(t *testing.T) { testStress(t, h) })
}

func testRoundTrip(t *testing.T, h Harness) {
	s, _ := h.New(t)
	fps, res := fixtures(t)
	for i, fp := range fps {
		if err := s.Put(fp, res[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, fp := range fps {
		got, ok, err := s.Get(fp)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = (ok=%v, err=%v), want hit", fp, ok, err)
		}
		// Bit-identical under the determinism-golden representation:
		// the stored result's JSON equals a fresh run's JSON exactly.
		want, err := json.Marshal(res[i])
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, want) {
			t.Errorf("entry %d round trip differs:\n got %s\nwant %s", i, gotJSON, want)
		}
	}
	if n, err := s.Len(); err != nil || n != len(fps) {
		t.Errorf("Len = (%d, %v), want %d", n, err, len(fps))
	}
}

func testCleanMiss(t *testing.T, h Harness) {
	s, _ := h.New(t)
	fps, _ := fixtures(t)
	if r, ok, err := s.Get(fps[0]); err != nil || ok {
		t.Fatalf("empty store Get = (%v, ok=%v, err=%v), want clean miss", r, ok, err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Errorf("empty store Len = (%d, %v), want 0", n, err)
	}
}

func testMalformed(t *testing.T, h Harness) {
	s, _ := h.New(t)
	bad := []string{
		"",
		"short",
		"../../../../etc/passwd0000000000000000000000000000000000000000000000",
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
	}
	for _, fp := range bad {
		if _, _, err := s.Get(fp); err == nil {
			t.Errorf("Get(%q) accepted malformed fingerprint", fp)
		}
		if err := s.Put(fp, sim.Result{}); err == nil {
			t.Errorf("Put(%q) accepted malformed fingerprint", fp)
		}
	}
}

func testOverwrite(t *testing.T, h Harness) {
	s, _ := h.New(t)
	fps, res := fixtures(t)
	for round := 0; round < 3; round++ {
		if err := s.Put(fps[0], res[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Get(fps[0]); err != nil || !ok {
		t.Fatalf("Get after repeated Put = (ok=%v, err=%v)", ok, err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Errorf("Len after repeated Put of one key = (%d, %v), want 1", n, err)
	}
}

func testQuarantine(t *testing.T, h Harness) {
	s, corrupt := h.New(t)
	if corrupt == nil {
		t.Skip("backend offers no corruption injector")
	}
	fps, res := fixtures(t)

	// A corrupt never-written slot reads as a miss, not an error.
	if err := corrupt(fps[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fps[1]); err != nil || ok {
		t.Fatalf("corrupt fresh slot Get = (ok=%v, err=%v), want quarantined miss", ok, err)
	}

	// A corrupted existing entry is quarantined, excluded from Len, and
	// healed by the next Put — the re-run path a grid point takes.
	if err := s.Put(fps[0], res[0]); err != nil {
		t.Fatal(err)
	}
	if err := corrupt(fps[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fps[0]); err != nil || ok {
		t.Fatalf("corrupt entry Get = (ok=%v, err=%v), want quarantined miss", ok, err)
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Errorf("Len counts quarantined entries: (%d, %v), want 0", n, err)
	}
	if err := s.Put(fps[0], res[0]); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(fps[0])
	if err != nil || !ok {
		t.Fatalf("Get after healing Put = (ok=%v, err=%v)", ok, err)
	}
	want, _ := json.Marshal(res[0])
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("healed entry differs from fresh result")
	}
}

// testStress hammers each entry with writers (identical bytes, the
// deterministic-engine contract), readers, and a corrupter. The
// invariant: every Get either misses cleanly or returns the exact
// result — never an error, never torn or stale-corrupt data. Run under
// -race this also pins the "safe for concurrent use" claim.
func testStress(t *testing.T, h Harness) {
	s, corrupt := h.New(t)
	fps, res := fixtures(t)
	const writers, readers, rounds = 2, 2, 12

	var wg sync.WaitGroup
	errc := make(chan error, len(fps)*(writers+readers+1))
	for i := range fps {
		i := i
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := s.Put(fps[i], res[i]); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		if corrupt != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds/2; r++ {
					if err := corrupt(fps[i]); err != nil {
						errc <- fmt.Errorf("corrupt(%s): %w", fps[i], err)
						return
					}
				}
			}()
		}
		for rd := 0; rd < readers; rd++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				want, err := json.Marshal(res[i])
				if err != nil {
					errc <- err
					return
				}
				for r := 0; r < rounds; r++ {
					got, ok, err := s.Get(fps[i])
					if err != nil {
						errc <- fmt.Errorf("entry %d: %w", i, err)
						return
					}
					if !ok {
						continue // clean miss: pre-write or quarantined
					}
					gotJSON, err := json.Marshal(got)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(gotJSON, want) {
						errc <- fmt.Errorf("entry %d: torn read: %s", i, gotJSON)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Heal every slot: after the dust settles the store must be fully
	// usable, whatever interleaving of corruption and writes occurred.
	for i, fp := range fps {
		if err := s.Put(fp, res[i]); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(fp); err != nil || !ok {
			t.Fatalf("post-stress Get(%s) = (ok=%v, err=%v)", fp, ok, err)
		}
	}
	if n, err := s.Len(); err != nil || n != len(fps) {
		t.Errorf("post-stress Len = (%d, %v), want %d", n, err, len(fps))
	}
}
