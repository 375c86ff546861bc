package analyzers_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/framework"
)

// testdata returns the absolute path of this package's testdata dir.
func testdata(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source file")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

func TestDetRand(t *testing.T) {
	framework.TestRunner(t, testdata(t), analyzers.DetRand, "detrand/a")
}

func TestMapOrder(t *testing.T) {
	framework.TestRunner(t, testdata(t), analyzers.MapOrder, "maporder/a")
}

func TestCounterGuard(t *testing.T) {
	framework.TestRunner(t, testdata(t), analyzers.CounterGuard, "counterguard/a")
}

func TestHotAlloc(t *testing.T) {
	framework.TestRunner(t, testdata(t), analyzers.HotAlloc, "hotalloc/a")
}

// TestSuiteScoping pins the package filters: the determinism analyzers
// cover exactly the deterministic packages, counterguard only the
// router, and the annotation-gated hotalloc every package including cmd/.
func TestSuiteScoping(t *testing.T) {
	suite := analyzers.Suite()
	if len(suite) != 4 {
		t.Fatalf("suite has %d analyzers, want 4", len(suite))
	}
	applies := func(cfg framework.Config, pkg string) bool {
		return cfg.Applies == nil || cfg.Applies(pkg)
	}
	byName := map[string]framework.Config{}
	for i, cfg := range suite {
		byName[cfg.Analyzer.Name] = cfg
		if i > 0 && suite[i-1].Analyzer.Name >= cfg.Analyzer.Name {
			t.Errorf("suite not sorted by name at %s", cfg.Analyzer.Name)
		}
		if !applies(cfg, "repro/internal/router") {
			t.Errorf("%s does not apply to the router package", cfg.Analyzer.Name)
		}
	}
	for _, name := range []string{"counterguard", "detrand", "hotalloc", "maporder"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("suite is missing analyzer %s", name)
		}
	}
	for _, name := range []string{"detrand", "maporder"} {
		cfg := byName[name]
		for _, pkg := range analyzers.DeterministicPackages {
			if !applies(cfg, pkg) {
				t.Errorf("%s does not apply to deterministic package %s", name, pkg)
			}
		}
		if applies(cfg, "repro/internal/experiments") {
			t.Errorf("%s applies to the experiments package; orchestration may use the clock", name)
		}
		if applies(cfg, "repro/internal/analyzers") {
			t.Errorf("%s applies to the analyzer package itself", name)
		}
	}
	if applies(byName["counterguard"], "repro/internal/sim") {
		t.Errorf("counterguard applies outside the router package")
	}
	for _, pkg := range []string{"repro/cmd/stcc", "repro/internal/server", "repro/internal/packet"} {
		if !applies(byName["hotalloc"], pkg) {
			t.Errorf("hotalloc does not apply to %s; it must cover every package", pkg)
		}
	}
}
