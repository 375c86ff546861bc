// Package memstore is the in-process backend of the result store: a
// mutex-guarded map from fingerprint to the entry's canonical JSON
// bytes. It is the reference implementation of the Store contract — no
// I/O, no atomic-rename subtleties, just the semantics — and the store
// tests attach wherever a disk would only add noise.
//
// Entries are held as marshaled bytes, not parsed structs, for two
// reasons: Get hands every caller an independent value (no aliasing of
// time-series slices between grid points), and the byte-level identity
// the determinism goldens pin holds by construction — what you Get is
// exactly what a fresh marshal of the Put result produced.
//
// The quarantine contract matches the other backends: bytes that fail
// to parse (injected through Inject, the corruption hook the
// conformance suite uses) are moved to a quarantine map — preserved for
// inspection, excluded from Len — and reported as a miss.
package memstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Store is an in-process fingerprint-addressed result store. The zero
// value is not usable; construct with New. Safe for concurrent use.
type Store struct {
	mu          sync.RWMutex
	entries     map[string][]byte
	quarantined map[string][]byte
}

// Compile-time check: *Store satisfies the pluggable contract.
var _ resultcache.Store = (*Store)(nil)

// New returns an empty store.
func New() *Store {
	return &Store{
		entries:     make(map[string][]byte),
		quarantined: make(map[string][]byte),
	}
}

// Get loads the result stored under the fingerprint. Corrupt bytes are
// quarantined and reported as a miss, matching the fsstore contract.
func (s *Store) Get(fingerprint string) (sim.Result, bool, error) {
	if err := resultcache.CheckFingerprint(fingerprint); err != nil {
		return sim.Result{}, false, err
	}
	s.mu.RLock()
	data, ok := s.entries[fingerprint]
	s.mu.RUnlock()
	if !ok {
		return sim.Result{}, false, nil
	}
	var r sim.Result
	if err := json.Unmarshal(data, &r); err != nil {
		s.quarantine(fingerprint, data)
		return sim.Result{}, false, nil
	}
	return r, true, nil
}

// quarantine moves the corrupt bytes aside, but only if the entry still
// holds the bytes this Get read — a concurrent Put may have healed the
// slot in the meantime, and healing wins.
func (s *Store) quarantine(fingerprint string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.entries[fingerprint]; ok && bytes.Equal(cur, data) {
		delete(s.entries, fingerprint)
		s.quarantined[fingerprint] = data
	}
}

// Put stores the result under the fingerprint.
func (s *Store) Put(fingerprint string, r sim.Result) error {
	if err := resultcache.CheckFingerprint(fingerprint); err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("memstore: %w", err)
	}
	s.mu.Lock()
	s.entries[fingerprint] = data
	s.mu.Unlock()
	return nil
}

// Len counts stored entries; quarantined entries are excluded.
func (s *Store) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries), nil
}

// Inject stores raw bytes under the fingerprint without validating that
// they parse. It is the corruption hook the storetest conformance suite
// uses to exercise the quarantine path; production writers go through
// Put.
func (s *Store) Inject(fingerprint string, data []byte) error {
	if err := resultcache.CheckFingerprint(fingerprint); err != nil {
		return err
	}
	s.mu.Lock()
	s.entries[fingerprint] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// Quarantined reports how many corrupt entries have been set aside.
func (s *Store) Quarantined() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.quarantined)
}
