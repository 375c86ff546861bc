// Package resultcache defines the content-addressed result store: every
// sim.Result is filed under its configuration's fingerprint (the hex
// SHA-256 of the config's canonical JSON, see sim.Config.Fingerprint).
// Because a fingerprint covers every input of a run — topology, scheme,
// workload, seed, durations — and the engine is deterministic, a stored
// result is bit-identical to re-running the configuration, so partially
// completed grids resume for free and repeated experiments skip
// finished points.
//
// The one backend is fsstore: one JSON file per fingerprint in a local
// directory, the cache behind every -cache flag and stcc-serve. Runners
// and the server take the Store interface, so a caller can wrap a store
// (the benchmark times its Gets and Puts that way).
//
// Only a process's own runs are Put: experiments.Runner files the
// results it simulated, and nothing writes a store over the network, so
// every stored result is one this engine produced.
//
// An entry that fails to parse (a partial write from a kill -9, external
// corruption, bit rot) is quarantined — set aside with its bytes
// preserved for inspection — and reported as a clean miss, so one
// corrupt entry re-runs one point instead of erroring a whole grid. Get
// never returns a result it could not fully parse.
package resultcache

import "repro/internal/sim"

// Store is a content-addressed result store. Implementations must be
// safe for concurrent use: grid points complete on runner worker
// goroutines, and the stcc-serve job manager shares one store across
// every job.
type Store interface {
	// Get loads the result stored under the fingerprint. The second
	// return is false on a clean miss — including when the stored entry
	// was corrupt and has been quarantined. An error means the store
	// itself failed (I/O), not that the entry is absent.
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
