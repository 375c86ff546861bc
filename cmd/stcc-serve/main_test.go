package main

import (
	"bytes"
	"errors"
	"os"
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

// A -cache URL is refused naming the flag, as stcc and stcc-paper refuse
// it, instead of being taken for a relative path: fsstore would create
// an "http:" directory tree in the working directory.
func TestCacheURLRejected(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-addr", "no-port", "-cache", "http://127.0.0.1:8081"}, &stderr); code == 0 {
		t.Fatal("a URL -cache exited 0")
	}
	if !strings.Contains(stderr.String(), "-cache") {
		t.Errorf("stderr %q does not name -cache", stderr.String())
	}
	if _, err := os.Stat("http:"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a URL -cache left an http: path behind (stat: %v)", err)
	}
}
