// Package stats provides the measurement machinery for network
// simulations: scalar accumulators, interval time series, and latency
// summaries. All types are plain values safe for single-threaded
// simulation use.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator tracks count/sum/min/max of a stream of samples.
type Accumulator struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Add records one sample.
func (a *Accumulator) Add(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
}

// Mean returns the sample mean, or 0 when empty.
func (a *Accumulator) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Series is a time series sampled at a fixed cycle interval: point i
// covers cycles [Start + i*Interval, Start + (i+1)*Interval).
type Series struct {
	Start    int64
	Interval int64
	Values   []float64
}

// NewSeries returns an empty series beginning at cycle start with the
// given sampling interval (must be positive).
func NewSeries(start, interval int64) *Series {
	if interval <= 0 {
		panic(fmt.Sprintf("stats: non-positive series interval %d", interval))
	}
	return &Series{Start: start, Interval: interval}
}

// Append adds the next interval's value.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Len returns the number of recorded intervals.
func (s *Series) Len() int { return len(s.Values) }

// CycleAt returns the starting cycle of point i.
func (s *Series) CycleAt(i int) int64 { return s.Start + int64(i)*s.Interval }

// Mean returns the mean of all points, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Window returns the mean of points whose start cycle lies in [from, to).
func (s *Series) Window(from, to int64) float64 {
	sum, n := 0.0, 0
	for i, v := range s.Values {
		c := s.CycleAt(i)
		if c >= from && c < to {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// latencyCap bounds LatencyStats' dense histogram: a sample that is a
// non-negative integer below it is counted, anything else is kept in
// the overflow list. Latencies are whole cycles, and a run would need
// a packet in flight for 65536 cycles to reach the overflow list.
const latencyCap = 1 << 16

// LatencyStats summarizes packet latencies. Integral samples below
// latencyCap are counted in a histogram that grows to the largest such
// sample, so memory follows the largest latency, not the number of
// packets; every other sample is kept in an overflow list. Percentile
// walks the two in value order and returns exactly the nearest-rank
// sample a sort of every sample would.
type LatencyStats struct {
	counts   []int64   // counts[v] is how many samples equal v
	overflow []float64 // samples the histogram cannot hold
	sorted   bool      // overflow is in sort.Float64s order
	acc      Accumulator
}

// Add records one latency sample.
//
//stcc:hotpath
func (l *LatencyStats) Add(v float64) {
	l.acc.Add(v)
	if v >= 0 && v < latencyCap {
		if i := int(v); float64(i) == v {
			if i >= len(l.counts) {
				//stcc:hotalloc geometric growth up to the largest latency, not per sample
				l.counts = append(l.counts, make([]int64, i+1-len(l.counts))...)
			}
			l.counts[i]++
			return
		}
	}
	l.overflow = append(l.overflow, v)
	l.sorted = false
}

// Reset empties l and keeps its storage, so the next run's samples
// fill the histogram and overflow list the last run grew.
func (l *LatencyStats) Reset() {
	clear(l.counts)
	*l = LatencyStats{counts: l.counts[:0], overflow: l.overflow[:0]}
}

// Count returns the number of samples.
func (l *LatencyStats) Count() int64 { return l.acc.Count }

// Mean returns the mean latency, or 0 when empty.
func (l *LatencyStats) Mean() float64 { return l.acc.Mean() }

// Max returns the maximum latency, or 0 when empty.
func (l *LatencyStats) Max() float64 {
	if l.acc.Count == 0 {
		return 0
	}
	return l.acc.Max
}

// Percentile returns the q-th percentile (q in [0,100]) using
// nearest-rank, or 0 when empty.
func (l *LatencyStats) Percentile(q float64) float64 {
	n := l.acc.Count
	if n == 0 {
		return 0
	}
	var rank int64
	switch {
	case q <= 0:
	case q >= 100:
		rank = n - 1
	default:
		rank = max(0, int64(math.Ceil(q/100*float64(n)))-1)
	}
	return l.nth(rank)
}

// nth returns the sample of the given 0-based rank in sort.Float64s
// order, merging the histogram with the sorted overflow list. No
// overflow sample equals a histogram value, so ties cannot reorder.
func (l *LatencyStats) nth(rank int64) float64 {
	if !l.sorted {
		sort.Float64s(l.overflow)
		l.sorted = true
	}
	j := 0
	for v, c := range l.counts {
		fv := float64(v)
		for ; j < len(l.overflow) && floatLess(l.overflow[j], fv); j++ {
			if rank == 0 {
				return l.overflow[j]
			}
			rank--
		}
		if rank < c {
			return fv
		}
		rank -= c
	}
	return l.overflow[j+int(rank)]
}

// floatLess is sort.Float64s' order: NaN first, then ascending.
func floatLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// Rate converts a flit count over nodes and cycles into the paper's
// normalized units (flits/node/cycle). Returns 0 for empty windows.
func Rate(flits int64, nodes int, cycles int64) float64 {
	if nodes <= 0 || cycles <= 0 {
		return 0
	}
	return float64(flits) / float64(nodes) / float64(cycles)
}
