package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so percentile must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{20, 50, 10},    // rank ceil(10) = 10, 10 beyond
		{40, 75, 30},    // rank 30, 10 beyond
		{1000, 99, 990}, // rank 990, 10 beyond
		{110, 90, 99},   // rank ceil(99) = 99, 11 beyond
		{101, 50, 51},   // rank ceil(50.5) = 51
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Fatalf("p%g of %d: %v", c.q, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.q, c.n, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{
		{19, 50},  // rank 10, 9 beyond
		{999, 99}, // rank 990, 9 beyond
		{39, 75},  // rank 30, 9 beyond
		{0, 50},
		{100, 100}, // the maximum never has samples beyond it
	} {
		if _, err := percentile(seq(c.n), c.q); err == nil || !strings.Contains(err.Error(), "beyond") {
			t.Errorf("p%g of %d samples: err = %v, want a too-few-samples error", c.q, c.n, err)
		}
	}
	if _, err := percentile(seq(50), 0); err == nil {
		t.Error("p0 accepted")
	}
}

func TestSummarize(t *testing.T) {
	s, err := summarize(seq(40))
	if err != nil {
		t.Fatal(err)
	}
	if s.P25 != 10 || s.P50 != 20 || s.P75 != 30 || s.N != 40 {
		t.Errorf("summary of 1..40 = %+v", s)
	}
	if _, err := summarize(seq(39)); err == nil {
		t.Error("summary of 39 samples reported a p75 with 9 beyond")
	}
}

func TestMedianOfRepeats(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median(4,1,3,2) = %g, want lower middle 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	for _, ns := range []int64{0, 1, 512, 1023, 1024} {
		h.add(ns)
	}
	if h.Count != 5 || h.SumNs != 2560 {
		t.Errorf("count/sum = %d/%d", h.Count, h.SumNs)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[10] != 2 || h.Buckets[11] != 1 {
		t.Errorf("buckets = %v", h.Buckets[:12])
	}
}
