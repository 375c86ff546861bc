// Package resultcache defines the content-addressed result store: every
// sim.Result is filed under its configuration's fingerprint (the hex
// SHA-256 of the config's canonical JSON, see sim.Config.Fingerprint).
// Because a fingerprint covers every input of a run — topology, scheme,
// workload, seed, durations — and the engine is deterministic, a stored
// result is bit-identical to re-running the configuration, so partially
// completed grids resume for free and repeated experiments skip
// finished points.
//
// The Store interface is the pluggable contract; the backends live in
// per-backend subpackages, mirrored so they can be conformance-tested
// and benchmarked against each other (see storetest):
//
//   - fsstore: one JSON file per fingerprint in a local directory, the
//     on-disk cache behind every -cache flag (atomic-rename writes, safe
//     for concurrent processes sharing the directory);
//   - memstore: an in-process map, the reference implementation of the
//     contract and the store the tests attach.
//
// Only a process's own runs are Put: experiments.Runner files the
// results it simulated, and nothing writes a store over the network, so
// every stored result is one this engine produced.
//
// All backends share the quarantine contract: an entry that fails to
// parse (a partial write from a kill -9, external corruption, bit rot)
// is quarantined — set aside with its bytes preserved for inspection —
// and reported as a clean miss, so one corrupt entry re-runs one point
// instead of erroring a whole grid. Get never returns a result it could
// not fully parse.
package resultcache

import (
	"fmt"

	"repro/internal/sim"
)

// Store is a content-addressed result store. Implementations must be
// safe for concurrent use: grid points complete on runner worker
// goroutines, and the stcc-serve job manager shares one store across
// every job.
type Store interface {
	// Get loads the result stored under the fingerprint. The second
	// return is false on a clean miss — including when the stored entry
	// was corrupt and has been quarantined. An error means the store
	// itself failed (I/O, transport), not that the entry is absent.
	Get(fingerprint string) (sim.Result, bool, error)
	// Put stores the result under the fingerprint, atomically with
	// respect to concurrent Gets: a reader observes either the complete
	// entry or a miss, never a torn write. Concurrent writers of the
	// same fingerprint write identical bytes (the engine is
	// deterministic), so last-write-wins is harmless.
	Put(fingerprint string, r sim.Result) error
	// Len counts stored (non-quarantined) entries, for tests and
	// "stcc-paper -cache" status lines.
	Len() (int, error)
}

// CheckFingerprint rejects any key that is not a 64-character lowercase
// hex string (the SHA-256 fingerprint alphabet). Every backend validates
// through this one gate, so a malformed key cannot escape a cache
// directory as a relative path.
func CheckFingerprint(fingerprint string) error {
	if len(fingerprint) != 64 {
		return fmt.Errorf("resultcache: fingerprint %q is not hex sha-256", fingerprint)
	}
	for _, ch := range fingerprint {
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return fmt.Errorf("resultcache: fingerprint %q is not hex sha-256", fingerprint)
		}
	}
	return nil
}
