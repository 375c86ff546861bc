package main

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/resultcache/fsstore"
	"repro/internal/sim"
)

// measureStore times one Put+Get round trip of a small real result
// against a result store in a temporary directory: the unit of work
// every cache-consulting grid point performs at most once on the write
// side and once on the read side. It pays fsync-free file I/O and an
// atomic rename.
func measureStore(name string) Shape {
	dir, err := os.MkdirTemp("", "stcc-bench-fsstore")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := fsstore.New(dir)
	if err != nil {
		fatal(err)
	}
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
	// One warm round trip outside the timed region: store setup costs
	// (directory stat) are excluded.
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
