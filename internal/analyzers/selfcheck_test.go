package analyzers_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analyzers"
	"repro/internal/analyzers/framework"
)

// repoRoot returns the module root (two levels above this package).
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source file")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// TestSuiteCleanOnRepo is the regression gate for the determinism
// contract: the whole module — cmd/ and examples/ included, since the
// "./..." pattern covers every package — must pass all four analyzers.
// If this fails, either fix the flagged code or (for a reviewed
// exception) add the analyzer's suppression directive (//stcc:maporder,
// //stcc:hotalloc ...) with a justification.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module; skipped in -short")
	}
	suite := analyzers.Suite()
	if len(suite) != 4 {
		t.Fatalf("suite has %d analyzers, want 4 (the gate must run the whole registry)", len(suite))
	}
	var out bytes.Buffer
	n, err := framework.Run(repoRoot(t), []string{"./..."}, suite, &out)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	if n != 0 {
		t.Errorf("determinism-contract suite found %d violation(s):\n%s", n, out.String())
	}
}

// TestVetToolCleanOnRepo runs the actual cmd/stcc-vet binary the way CI
// and developers do, pinning the exit-status contract (0 on a clean
// tree) in both output formats, including the checked-in (empty)
// baseline that `make vet-json` uses.
func TestVetToolCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs cmd/stcc-vet; skipped in -short")
	}
	root := repoRoot(t)
	cmd := exec.Command("go", "run", "./cmd/stcc-vet", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./cmd/stcc-vet ./... failed: %v\n%s", err, out)
	}
	if s := strings.TrimSpace(string(out)); s != "" {
		t.Errorf("stcc-vet produced output on a clean tree:\n%s", s)
	}

	// The CI invocation: machine-readable output filtered through the
	// checked-in baseline, which must be empty (the tree is clean).
	cmd = exec.Command("go", "run", "./cmd/stcc-vet",
		"-format", "json", "-baseline", ".stcc-vet-baseline.json", "./...")
	cmd.Dir = root
	out, err = cmd.Output()
	if err != nil {
		t.Fatalf("stcc-vet -format json -baseline failed: %v\n%s", err, out)
	}
	if s := strings.TrimSpace(string(out)); s != "[]" {
		t.Errorf("json findings on a clean tree = %s, want []", s)
	}
}
