package remotestore_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/resultcache/remotestore"
	"repro/internal/resultcache/storetest"
	"repro/internal/server"
)

// newPeer starts a real in-process stcc-serve daemon backed by an
// on-disk store and returns a remote store speaking to it plus the
// backing directory (the corruption injector writes there, exactly like
// disk corruption on the peer).
func newPeer(t *testing.T) (*remotestore.Store, string) {
	t.Helper()
	dir := t.TempDir()
	backing, err := fsstore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Cache: backing})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("peer shutdown: %v", err)
		}
	})
	s, err := remotestore.New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// TestConformance runs the shared Store suite over the full network
// chain: remotestore -> HTTP -> server -> fsstore. Corruption happens
// on the peer's disk; the quarantine contract must hold transitively
// (the client sees a clean miss, never a parse error).
func TestConformance(t *testing.T) {
	storetest.Run(t, storetest.Harness{
		New: func(t *testing.T) (resultcache.Store, storetest.CorruptFunc) {
			s, dir := newPeer(t)
			corrupt := func(fp string) error {
				return os.WriteFile(filepath.Join(dir, fp+".json"), []byte("{truncated"), 0o644)
			}
			return s, corrupt
		},
	})
}

// A dead peer is an error, not a miss: a sweep must notice its shared
// cache is gone rather than silently re-simulating everything.
func TestDeadPeerIsError(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close()
	s, err := remotestore.New(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
	if _, _, err := s.Get(fp); err == nil {
		t.Error("Get against a dead peer returned no error")
	}
	if _, err := s.Len(); err == nil {
		t.Error("Len against a dead peer returned no error")
	}
}

func TestBaseURL(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{"localhost:8080", "http://localhost:8080", false},
		{"localhost:8080/", "http://localhost:8080", false},
		{"http://node1:8080/", "http://node1:8080", false},
		{"http://node1:8080//", "http://node1:8080", false},
		{"https://node1:8080", "https://node1:8080", false},
		{"https://node1:8080/", "https://node1:8080", false},
		{" node2:9090 ", "http://node2:9090", false},
		{"", "", true},
		{"   ", "", true},
		{"ftp://h", "", true},
		{"unix:///tmp/stcc.sock", "", true},
		{"grpc://node1:8080", "", true},
	}
	for _, tc := range cases {
		got, err := remotestore.BaseURL(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("BaseURL(%q) = %q, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("BaseURL(%q) = (%q, %v), want %q", tc.in, got, err, tc.want)
		}
	}
}
