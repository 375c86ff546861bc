package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/resultcache/fsstore"
	"repro/internal/resultcache/memstore"
	"repro/internal/resultcache/remotestore"
	"repro/internal/server"
	"repro/internal/sim"
)

// point is one shape to measure: run builds it, warms it up and times
// it.
type point struct {
	name string
	run  func() Shape
}

// storePoints builds the store/{fs,mem,remote} shapes: one Put + one
// Get of a realistic cached result per op, against each backend of the
// distributed sweep fabric. The fs backend pays fsync-free file I/O and
// an atomic rename; mem is the marshal/unmarshal floor; remote adds a
// full HTTP round trip to an in-process peer daemon (loopback, so the
// number is protocol overhead, not network distance).
func storePoints() []point {
	return []point{
		{"store/fs", func() Shape {
			dir, err := os.MkdirTemp("", "stcc-bench-fsstore")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			s, err := fsstore.New(dir)
			if err != nil {
				fatal(err)
			}
			return measureStore("store/fs", s)
		}},
		{"store/mem", func() Shape {
			return measureStore("store/mem", memstore.New())
		}},
		{"store/remote", func() Shape {
			srv := server.New(server.Config{Cache: memstore.New()})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			s, err := remotestore.New(ts.URL, nil)
			if err != nil {
				fatal(err)
			}
			return measureStore("store/remote", s)
		}},
	}
}

// measureStore times one Put+Get round trip of a small real result —
// the unit of work every cache-consulting grid point performs at most
// once on the write side and once on the read side.
func measureStore(name string, s resultcache.Store) Shape {
	cfg := sim.NewConfig()
	cfg.K = 4
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Rate = 0.005
	fp, err := cfg.Fingerprint()
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	// One warm round trip outside the timed region: backend setup costs
	// (directory stat, HTTP connection establishment) are excluded.
	if err := s.Put(fp, res); err != nil {
		fatal(err)
	}
	if _, ok, err := s.Get(fp); err != nil || !ok {
		fatal(fmt.Errorf("store warm-up Get = (ok=%v, err=%v)", ok, err))
	}
	return toShape(name, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Put(fp, res); err != nil {
				fatal(err)
			}
			if _, ok, err := s.Get(fp); err != nil || !ok {
				fatal(fmt.Errorf("store Get = (ok=%v, err=%v)", ok, err))
			}
		}
	}))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stcc-bench: %v\n", err)
	os.Exit(1)
}
