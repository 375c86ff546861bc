package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNegativeCountsRejected pins flag validation: a negative -queue,
// -jobs or -workers exits 2 naming the flag, before any listener is
// opened, while 0 keeps its "default" meaning and gets as far as
// listening. The unusable -addr makes a run that skipped validation
// fail to listen instead of serving.
func TestNegativeCountsRejected(t *testing.T) {
	for _, name := range []string{"queue", "jobs", "workers"} {
		var stderr bytes.Buffer
		if code := run([]string{"-addr", "no-port", "-" + name, "-1"}, &stderr); code != 2 {
			t.Errorf("-%s -1 exited %d, want 2; stderr: %s", name, code, stderr.String())
		}
		if want := "-" + name + " must be >= 0, got -1"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s -1 stderr %q does not contain %q", name, stderr.String(), want)
		}

		stderr.Reset()
		if code := run([]string{"-addr", "no-port", "-" + name, "0"}, &stderr); code != 1 {
			t.Errorf("-%s 0 exited %d, want 1 (listen failure); stderr: %s", name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "no-port") {
			t.Errorf("-%s 0 stderr %q does not report the listen failure", name, stderr.String())
		}
	}
}
