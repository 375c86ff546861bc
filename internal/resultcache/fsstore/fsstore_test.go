package fsstore_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/resultcache/fsstore"
	"repro/internal/sim"
)

// newStore opens a store in a fresh directory and returns both.
func newStore(t *testing.T) (*fsstore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := fsstore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// corrupt writes unparsable bytes as the entry of fp, as a partial
// write or external damage would leave it.
func corrupt(dir, fp string) error {
	return os.WriteFile(filepath.Join(dir, fp+".json"), []byte("{truncated"), 0o644)
}

// marshal returns r's JSON, the representation the determinism goldens
// pin.
func marshal(t *testing.T, r sim.Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConformance checks the resultcache.Store contract against a real
// directory: round trips, misses, the key check, overwrites, quarantine
// and concurrent use. The entries are three real engine runs with full
// time series.
func TestConformance(t *testing.T) {
	var fps []string
	var res []sim.Result
	for seed := int64(1); seed <= 3; seed++ {
		cfg := sim.NewConfig()
		cfg.K, cfg.WarmupCycles, cfg.MeasureCycles = 4, 100, 400
		cfg.Rate, cfg.Seed = 0.005, seed
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fps, res = append(fps, fp), append(res, r)
	}

	t.Run("RoundTripBitIdentical", func(t *testing.T) {
		s, _ := newStore(t)
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
			if gotJSON, want := marshal(t, got), marshal(t, res[i]); !bytes.Equal(gotJSON, want) {
				t.Errorf("entry %d round trip differs:\n got %s\nwant %s", i, gotJSON, want)
			}
		}
		if n, err := s.Len(); err != nil || n != len(fps) {
			t.Errorf("Len = (%d, %v), want %d", n, err, len(fps))
		}
	})

	t.Run("CleanMiss", func(t *testing.T) {
		s, _ := newStore(t)
		if r, ok, err := s.Get(fps[0]); err != nil || ok {
			t.Fatalf("empty store Get = (%v, ok=%v, err=%v), want clean miss", r, ok, err)
		}
		if n, err := s.Len(); err != nil || n != 0 {
			t.Errorf("empty store Len = (%d, %v), want 0", n, err)
		}
	})

	// Only 64 lowercase hex characters name an entry, so no key can
	// reach outside the directory.
	t.Run("MalformedFingerprints", func(t *testing.T) {
		s, _ := newStore(t)
		good := strings.Repeat("0123456789abcdef", 4)
		for _, fp := range []string{
			"",
			"short",
			good + "0", // too long
			"../../../../etc/passwd0000000000000000000000000000000000000000000000",
			"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
			"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
			strings.Repeat("0123456789abcde/", 4), // path separator
		} {
			if _, _, err := s.Get(fp); err == nil {
				t.Errorf("Get(%q) accepted malformed fingerprint", fp)
			}
			if err := s.Put(fp, sim.Result{}); err == nil {
				t.Errorf("Put(%q) accepted malformed fingerprint", fp)
			}
		}
		if _, ok, err := s.Get(good); err != nil || ok {
			t.Errorf("Get(%q) = (ok=%v, err=%v), want clean miss", good, ok, err)
		}
	})

	t.Run("OverwriteIdempotent", func(t *testing.T) {
		s, _ := newStore(t)
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
	})

	t.Run("CorruptEntryQuarantinedAsMiss", func(t *testing.T) {
		s, dir := newStore(t)

		// A corrupt never-written slot reads as a miss, not an error.
		if err := corrupt(dir, fps[1]); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(fps[1]); err != nil || ok {
			t.Fatalf("corrupt fresh slot Get = (ok=%v, err=%v), want quarantined miss", ok, err)
		}

		// A corrupted existing entry is quarantined, excluded from Len,
		// and healed by the next Put — the re-run path a grid point
		// takes.
		if err := s.Put(fps[0], res[0]); err != nil {
			t.Fatal(err)
		}
		if err := corrupt(dir, fps[0]); err != nil {
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
		if !bytes.Equal(marshal(t, got), marshal(t, res[0])) {
			t.Errorf("healed entry differs from fresh result")
		}
	})

	// Writers (identical bytes, the deterministic-engine contract),
	// readers and a corrupter hammer each entry. Every Get either
	// misses cleanly or returns the exact result — never an error,
	// never torn or stale-corrupt data. Run under -race this also pins
	// "safe for concurrent use".
	t.Run("ConcurrentPutGetCorruptStress", func(t *testing.T) {
		s, dir := newStore(t)
		const writers, readers, rounds = 2, 2, 12
		var wg sync.WaitGroup
		errc := make(chan error, len(fps)*(writers+readers+1))
		for i := range fps {
			want := marshal(t, res[i])
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
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds/2; r++ {
					if err := corrupt(dir, fps[i]); err != nil {
						errc <- fmt.Errorf("corrupt(%s): %w", fps[i], err)
						return
					}
				}
			}()
			for rd := 0; rd < readers; rd++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
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

		// Heal every slot: whatever interleaving of corruption and
		// writes occurred, the store must be fully usable afterwards.
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
	})
}

// An entry that cannot be read is a store failure, not a corrupt entry:
// Get returns the error and quarantines nothing, and Put reports a
// failed rename. A directory in the entry's place makes both fail even
// for root, which file permissions would not.
func TestUnreadableEntryIsError(t *testing.T) {
	s, dir := newStore(t)
	fp := strings.Repeat("0123456789abcdef", 4)
	entry := filepath.Join(dir, fp+".json")
	if err := os.Mkdir(entry, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fp); err == nil || ok {
		t.Errorf("Get of an unreadable entry = (ok=%v, err=%v), want an error", ok, err)
	}
	if _, err := os.Stat(entry + ".corrupt"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Get quarantined an unreadable entry (stat .corrupt: %v)", err)
	}
	if err := s.Put(fp, sim.Result{}); err == nil {
		t.Error("Put over a directory succeeded")
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Errorf("Len = (%d, %v), want 0: a directory is not an entry", n, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("failed Put left %d files (err %v), want only the directory", len(entries), err)
	}
}

// The corrupt bytes survive on disk as <fingerprint>.json.corrupt for
// post-mortem inspection.
func TestQuarantinePreservesBytesOnDisk(t *testing.T) {
	s, dir := newStore(t)
	cfg := sim.NewConfig()
	cfg.K = 4
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if err := corrupt(dir, fp); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fp); err != nil || ok {
		t.Fatalf("corrupt entry Get = (ok=%v, err=%v), want quarantined miss", ok, err)
	}
	moved, err := os.ReadFile(filepath.Join(dir, fp+".json.corrupt"))
	if err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	if want := "{truncated"; string(moved) != want {
		t.Errorf("quarantine altered the corrupt bytes: %q, want %q", moved, want)
	}
}

// The on-disk layout is the original resultcache layout — existing
// cache directories must keep working.
func TestOnDiskLayoutUnchanged(t *testing.T) {
	s, dir := newStore(t)
	cfg := sim.NewConfig()
	cfg.K = 4
	cfg.WarmupCycles, cfg.MeasureCycles = 100, 400
	cfg.Rate = 0.005
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fp, r); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fp+".json")); err != nil {
		t.Errorf("entry not stored as <fingerprint>.json: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("store left %d files, want exactly the entry (no temp residue)", len(entries))
	}
}

func TestNewRejectsEmptyDir(t *testing.T) {
	if _, err := fsstore.New(""); err == nil {
		t.Fatal("New(\"\") succeeded")
	}
}

// A URL is refused before anything is created: taken for a relative
// path it would make an "http:" directory tree here.
func TestNewRejectsURL(t *testing.T) {
	url := "http://127.0.0.1:8081"
	if _, err := fsstore.New(url); err == nil {
		t.Errorf("New accepted %q", url)
	}
	if _, err := os.Stat("http:"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a URL left an http: path behind (stat: %v)", err)
	}
}
