package analyzers

import (
	"strings"

	"repro/internal/analyzers/framework"
)

// DeterministicPackages are the packages covered by the determinism
// contract: everything that executes between Config+Seed and a
// simulation Result, including stats, which computes every number a
// Result reports. Packages outside this list (experiments, analysis,
// trace, the CLIs) may use the clock and global randomness freely —
// they orchestrate runs and read their results, they don't define them.
var DeterministicPackages = []string{
	"repro/internal/router",
	"repro/internal/sim",
	"repro/internal/congestion",
	"repro/internal/core",
	"repro/internal/traffic",
	"repro/internal/sideband",
	"repro/internal/topology",
	"repro/internal/packet",
	"repro/internal/stats",
}

// RouterPackage is the home of the guarded active-set counters.
const RouterPackage = "repro/internal/router"

// Suite returns the full analyzer suite with its per-package scoping,
// sorted by analyzer name: hotalloc runs everywhere (it is gated by
// //stcc:hotpath annotations, so out-of-scope packages cost one cheap
// scan), detrand and maporder on every deterministic package, and
// counterguard on the router only. cmd/stcc-vet and the self-check
// test use this one definition.
func Suite() []framework.Config {
	return []framework.Config{
		{Analyzer: CounterGuard, Applies: isRouter},
		{Analyzer: DetRand, Applies: isDeterministic},
		{Analyzer: HotAlloc},
		{Analyzer: MapOrder, Applies: isDeterministic},
	}
}

func isRouter(pkgPath string) bool { return pkgPath == RouterPackage }

func isDeterministic(pkgPath string) bool {
	for _, p := range DeterministicPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}
