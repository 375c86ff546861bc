package fsstore_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/resultcache/fsstore"
	"repro/internal/sim"
)

// FuzzCacheEntry writes arbitrary bytes as the on-disk entry of a valid
// fingerprint. Get must not panic. A hit must be stable: its re-marshal
// stored with Put must read back to the same bytes. A miss must leave
// the entry quarantined and out of Len.
func FuzzCacheEntry(f *testing.F) {
	// A real entry, kept short (two samples per series, a three-point
	// tuner trace) so the fuzzer's input minimization stays cheap.
	cfg := sim.NewConfig()
	cfg.K, cfg.WarmupCycles, cfg.MeasureCycles, cfg.SampleInterval = 4, 0, 96, 48
	cfg.Scheme = sim.Scheme{Kind: sim.SelfTuned, KeepTrace: true}
	fp, err := cfg.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		good,
		good[:len(good)/2],
		[]byte("null"),
		[]byte(`{"AcceptedFlits":1e400}`),
		[]byte(`{"Throughput":{"Start":0,"Interval":64,"Values":[]},"acceptedflits":0.5,"AcceptedFlits":0.25}`),
	} {
		f.Add(seed)
	}
	dir := f.TempDir()
	s, err := fsstore.New(dir)
	if err != nil {
		f.Fatal(err)
	}
	entry := filepath.Join(dir, fp+".json")
	f.Fuzz(func(t *testing.T, data []byte) {
		os.Remove(entry + ".corrupt")
		if err := os.WriteFile(entry, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, ok, err := s.Get(fp)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !ok {
			if _, err := os.Stat(entry + ".corrupt"); err != nil {
				t.Fatalf("miss left no quarantined entry: %v", err)
			}
			if n, err := s.Len(); err != nil || n != 0 {
				t.Fatalf("Len after quarantine = %d (err %v), want 0", n, err)
			}
			return
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("hit does not re-marshal: %v", err)
		}
		if err := s.Put(fp, r); err != nil {
			t.Fatalf("Put: %v", err)
		}
		back, ok, err := s.Get(fp)
		if err != nil || !ok {
			t.Fatalf("Get after Put = (ok=%v, err=%v)", ok, err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("entry changed across Put/Get:\n got %s\nwant %s", got, want)
		}
	})
}
