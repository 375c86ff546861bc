// Package fsstore is the filesystem backend of the result store: one
// JSON file per fingerprint in a local directory, unchanged on disk from
// the original resultcache layout, so existing cache directories keep
// working.
//
// Writes go through a temp file and an atomic rename, so a crashed or
// concurrent run never leaves a half-written entry; concurrent writers
// of the same fingerprint write identical bytes (the engine is
// deterministic), so last-rename-wins is harmless. The store is
// therefore safe for any mix of concurrent readers and writers —
// goroutines of one process or separate processes sharing the directory
// — which is what the stcc-serve job manager relies on when concurrent
// jobs miss on one fingerprint and each file it.
//
// An entry that fails to parse (a partial file from a kill -9 on a
// filesystem without atomic rename, or external corruption) is
// quarantined, not trusted and not fatal: Get renames it aside to
// <fingerprint>.json.corrupt and reports a miss, so the point re-runs
// and overwrites the entry while the corrupt bytes stay on disk for
// inspection.
package fsstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Store is a directory of fingerprint-addressed results. The zero value
// is not usable; construct with New.
type Store struct {
	dir string
}

// Compile-time check: *Store satisfies the pluggable contract.
var _ resultcache.Store = (*Store)(nil)

// New opens (creating if needed) a store rooted at dir. A URL is
// refused rather than taken for a relative path, which would silently
// create a directory tree named after it.
func New(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("fsstore: empty directory")
	}
	if strings.Contains(dir, "://") {
		return nil, fmt.Errorf("fsstore: %q is a URL, not a directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a fingerprint to its file. Any key that is not a
// 64-character lowercase hex string (the SHA-256 fingerprint alphabet)
// is refused, so a malformed key cannot escape the directory as a
// relative path.
func (s *Store) path(fingerprint string) (string, error) {
	ok := len(fingerprint) == 64
	for _, ch := range fingerprint {
		ok = ok && ('0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'f')
	}
	if !ok {
		return "", fmt.Errorf("fsstore: fingerprint %q is not hex sha-256", fingerprint)
	}
	return filepath.Join(s.dir, fingerprint+".json"), nil
}

// Get loads the result stored under the fingerprint. The second return
// is false on a clean miss. An entry that does not parse is quarantined
// (renamed aside to <fingerprint>.json.corrupt, preserving the bytes)
// and reported as a miss, so one corrupt file re-runs one point instead
// of erroring the whole grid; an unreadable file (permissions, I/O) is
// still an error.
func (s *Store) Get(fingerprint string) (sim.Result, bool, error) {
	p, err := s.path(fingerprint)
	if err != nil {
		return sim.Result{}, false, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return sim.Result{}, false, nil
	}
	if err != nil {
		return sim.Result{}, false, fmt.Errorf("fsstore: %w", err)
	}
	var r sim.Result
	if err := json.Unmarshal(data, &r); err != nil {
		if qerr := s.quarantine(p); qerr != nil {
			return sim.Result{}, false, fmt.Errorf("fsstore: corrupt entry %s (quarantine failed: %v): %w",
				fingerprint, qerr, err)
		}
		return sim.Result{}, false, nil
	}
	return r, true, nil
}

// quarantine moves a corrupt entry aside. A concurrent Get may have
// already quarantined (or a concurrent Put replaced) the file; a
// vanished source is success, not an error.
func (s *Store) quarantine(p string) error {
	err := os.Rename(p, p+".corrupt")
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Put stores the result under the fingerprint, atomically.
func (s *Store) Put(fingerprint string, r sim.Result) error {
	p, err := s.path(fingerprint)
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("fsstore: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("fsstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("fsstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fsstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("fsstore: %w", err)
	}
	return nil
}

// Len counts stored entries; quarantined (.json.corrupt) files and
// in-flight temp files are excluded.
func (s *Store) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("fsstore: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
