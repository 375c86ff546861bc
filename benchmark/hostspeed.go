package main

import (
	"runtime"
	"sync"
	"time"
)

// The benchmark's host shares its machine with other tenants, and its
// speed drifts by a third or more over minutes: the same run of the
// same seed reads 27k or 42k simulated cycles/s depending on when it
// runs. A fixed reference kernel timed in the same run slows down with
// it, so every timing is reported scaled to the kernel's speed on a
// quiet reference host:
//
//	reported time = measured time × probeNominal / probe time now
//
// The raw, unscaled numbers are printed on the report lines.
//
// A probe sample times the kernel in the calling thread's CPU time, with
// the goroutine locked to its thread, so time the thread spends waiting
// for a CPU — behind the Go runtime's background work or another
// goroutine — does not count. Timed on the wall clock on two goroutines
// at once during a simulation, the kernel read up to twice its time at
// random.

// probeTable is the kernel's table: 1 MB, cache-resident like the
// simulator's hot state.
const probeTable = 1 << 18

// probeIters is one kernel run's work: a multiply-add chain with
// dependent reads and writes over the table, like the simulator's mix
// of arithmetic and branchy state updates.
const probeIters = 100_000

// probeRuns is how many kernel runs make one sample. The sample is
// their median, so a run the host preempted does not count.
const probeRuns = 5

// probeNominal is one kernel run's time on the reference host in a
// quiet period. It only scales the reported numbers; comparisons
// between runs do not depend on its value.
const probeNominal = 750 * time.Microsecond

// probeScratch is one sampling goroutine's working memory.
type probeScratch struct {
	table []uint32
	runs  []float64
}

// hostProbe takes probe samples, from up to width goroutines at once,
// and keeps them.
type hostProbe struct {
	free chan *probeScratch

	mu      sync.Mutex
	samples []float64 // each sample's slowdown: kernel time over nominal
	wall    time.Duration
}

// newHostProbe allocates everything its samples need up front, so
// sampling never shows up in the allocation metrics.
func newHostProbe(width int) *hostProbe {
	p := &hostProbe{free: make(chan *probeScratch, width), samples: make([]float64, 0, 1<<14)}
	for i := 0; i < width; i++ {
		p.free <- &probeScratch{table: make([]uint32, probeTable), runs: make([]float64, probeRuns)}
	}
	return p
}

// probeKernel runs the reference kernel once over a cleared table, so
// every run does the same work.
func probeKernel(t []uint32) uint32 {
	clear(t)
	x := uint32(12345)
	for i := 0; i < probeIters; i++ {
		x = x*1664525 + 1013904223
		j := x >> 14
		t[j] += x
		if t[j]&1 == 0 {
			x ^= t[(j+64)&(probeTable-1)]
		}
	}
	return x
}

// sample times one probe sample and returns the host's slowdown: the
// kernel's median CPU time over its nominal time.
func (p *hostProbe) sample() float64 {
	t0 := time.Now()
	s := <-p.free
	runtime.LockOSThread()
	for i := range s.runs {
		c0, _ := threadCPU()
		probeKernel(s.table)
		c1, _ := threadCPU()
		s.runs[i] = (c1 - c0).Seconds()
	}
	runtime.UnlockOSThread()
	slow := median(s.runs) / probeNominal.Seconds()
	p.free <- s
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples = append(p.samples, slow)
	p.wall += time.Since(t0)
	return slow
}

// samplesFor takes n samples and returns their median slowdown.
func (p *hostProbe) samplesFor(n int) float64 {
	from, _ := p.mark()
	for i := 0; i < n; i++ {
		p.sample()
	}
	return p.slowdown(from)
}

// mark returns how many samples were taken so far and the wall time
// they took, so a caller can scale by, or subtract, the samples taken
// after it.
func (p *hostProbe) mark() (int, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples), p.wall
}

// slowdown is the median slowdown of the samples taken since sample
// index from.
func (p *hostProbe) slowdown(from int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return median(append([]float64(nil), p.samples[from:]...))
}

// bytes is the probe's own heap footprint, which the live-heap metric
// leaves out.
func (p *hostProbe) bytes() float64 {
	return float64(cap(p.free)*(4*probeTable+8*probeRuns) + 8*cap(p.samples))
}

// timeSetups repeats a set-up reps times and returns the median of its
// scaled and of its unscaled times. Each repetition starts from a
// collected heap and is scaled by the probe samples on either side of
// it; setup times only the part that counts as set-up.
func timeSetups(probe *hostProbe, reps int, setup func() (time.Duration, error)) (scaled, raw float64, err error) {
	s, r := make([]float64, reps), make([]float64, reps)
	prev := probe.sample()
	for i := range s {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return 0, 0, err
		}
		next := probe.sample()
		r[i] = d.Seconds()
		s[i] = d.Seconds() * 2 / (prev + next)
		prev = next
	}
	return median(s), median(r), nil
}
