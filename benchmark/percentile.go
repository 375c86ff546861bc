package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile's rank. A percentile with fewer samples beyond it is set
// by a handful of outliers, so reporting it would be noise.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100)
// of samples, which it sorts in place. It fails when fewer than
// minBeyond samples lie beyond the rank, so a run that did too little
// work to support a percentile fails instead of printing one.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q > 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100]", q)
	}
	rank := int(math.Ceil(q / 100 * float64(n))) // 1-based
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d",
			q, n, max(beyond, 0), minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// summary is a windowed measurement's median, quartiles and count.
type summary struct {
	N             int
	P25, P50, P75 float64
}

// summarize computes the quartiles of samples, failing like percentile
// when the upper quartile lacks samples beyond it.
func summarize(samples []float64) (summary, error) {
	s := summary{N: len(samples)}
	var err error
	for _, p := range []struct {
		q   float64
		dst *float64
	}{{25, &s.P25}, {50, &s.P50}, {75, &s.P75}} {
		if *p.dst, err = percentile(samples, p.q); err != nil {
			return summary{}, err
		}
	}
	return s, nil
}

// median returns the middle value of a small fixed number of repeated
// measurements (set-up times), sorting samples in place. It is not a
// percentile estimate and so carries no sample-count requirement; an
// even count takes the lower middle value.
func median(samples []float64) float64 {
	sort.Float64s(samples)
	return samples[(len(samples)-1)/2]
}

func (s summary) String() string {
	return fmt.Sprintf("median %.6g, IQR %.6g..%.6g, n=%d", s.P50, s.P25, s.P75, s.N)
}

// histogram aggregates span durations into fixed power-of-two buckets:
// bucket i counts durations d with bits.Len64(d) == i, so bucket 10
// holds 512..1023 ns. Fixed buckets cost one add per span and keep the
// whole distribution in 65 words regardless of run length.
type histogram struct {
	Count   int64     `json:"count"`
	SumNs   int64     `json:"sum_ns"`
	Buckets [65]int64 `json:"log2_buckets"`
}

func (h *histogram) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Count++
	h.SumNs += ns
	h.Buckets[bits.Len64(uint64(ns))]++
}
