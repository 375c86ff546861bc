package fsstore_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/resultcache/storetest"
	"repro/internal/sim"
)

// TestConformance runs the shared Store suite: round trips, misses, the
// fingerprint gate, quarantine, and the concurrent put/get/corrupt
// stress, all against the on-disk backend.
func TestConformance(t *testing.T) {
	storetest.Run(t, storetest.Harness{
		New: func(t *testing.T) (resultcache.Store, storetest.CorruptFunc) {
			dir := t.TempDir()
			s, err := fsstore.New(dir)
			if err != nil {
				t.Fatal(err)
			}
			corrupt := func(fp string) error {
				return os.WriteFile(filepath.Join(dir, fp+".json"), []byte("{truncated"), 0o644)
			}
			return s, corrupt
		},
	})
}

// The fs-specific quarantine shape: the corrupt bytes must survive on
// disk as <fingerprint>.json.corrupt for post-mortem inspection — the
// part of the contract the interface can't see.
func TestQuarantinePreservesBytesOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := fsstore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.NewConfig()
	cfg.K = 4
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte("{truncated")
	if err := os.WriteFile(filepath.Join(dir, fp+".json"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(fp); err != nil || ok {
		t.Fatalf("corrupt entry Get = (ok=%v, err=%v), want quarantined miss", ok, err)
	}
	moved, err := os.ReadFile(filepath.Join(dir, fp+".json.corrupt"))
	if err != nil {
		t.Fatalf("quarantined bytes not preserved: %v", err)
	}
	if !bytes.Equal(moved, corrupt) {
		t.Errorf("quarantine altered the corrupt bytes: %q", moved)
	}
}

// The on-disk layout is the original resultcache layout — existing
// cache directories must keep working across the Store refactor.
func TestOnDiskLayoutUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := fsstore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
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
