package resultcache_test

import (
	"strings"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/sim"
)

// A Store files each result under its configuration's fingerprint, and
// fsstore, the one backend, checks every key before it touches its
// directory. This table pins what that check accepts: what
// sim.Config.Fingerprint produces, and nothing else.
func TestCheckFingerprint(t *testing.T) {
	fs, err := fsstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var s resultcache.Store = fs
	fromConfig, err := sim.NewConfig().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	good := strings.Repeat("0123456789abcdef", 4)
	for _, fp := range []string{good, fromConfig} {
		if err := s.Put(fp, sim.Result{}); err != nil {
			t.Errorf("Put(%q) = %v, want nil", fp, err)
		}
	}
	bad := []string{
		"",
		"short",
		good + "0", // too long
		"../../../../etc/passwd0000000000000000000000000000000000000000000000",
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789", // uppercase
		"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz",
		strings.Repeat("0123456789abcde/", 4), // path separator
	}
	for _, fp := range bad {
		if err := s.Put(fp, sim.Result{}); err == nil {
			t.Errorf("Put(%q) accepted a malformed fingerprint", fp)
		}
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Errorf("Len = (%d, %v), want the 2 well-formed keys only", n, err)
	}
}
