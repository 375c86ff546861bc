// Package traffic generates synthetic workloads for multiprocessor
// network simulation: the paper's four communication patterns (uniform
// random, bit-reversal, perfect shuffle, butterfly) plus common extras,
// Bernoulli and fixed-interval injection processes, and the bursty phase
// schedule used in the paper's Figure 6/7 experiment.
package traffic

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/topology"
)

// Pattern chooses a destination for each source node. Implementations
// must never return an out-of-range node; returning the source itself is
// allowed only by patterns whose definition requires it (such fixed
// points are skipped by the generator).
type Pattern interface {
	// Dest returns the destination for a packet originating at src.
	Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID
	Name() string
}

// PatternKind enumerates built-in patterns for configuration.
type PatternKind string

// Built-in pattern kinds.
const (
	UniformRandom  PatternKind = "random"
	BitReversal    PatternKind = "bitreversal"
	PerfectShuffle PatternKind = "shuffle"
	Butterfly      PatternKind = "butterfly"
	Transpose      PatternKind = "transpose"
	BitComplement  PatternKind = "complement"
	HotspotKind    PatternKind = "hotspot"
)

// patternKinds is the one list of built-in kinds: flag help prints it
// and ScheduleSpec.Validate checks phase patterns against it.
var patternKinds = []PatternKind{UniformRandom, BitReversal, PerfectShuffle, Butterfly, Transpose, BitComplement, HotspotKind}

// PatternKinds returns the built-in pattern kinds NewPattern accepts.
func PatternKinds() []PatternKind { return append([]PatternKind(nil), patternKinds...) }

// NewPattern constructs a built-in pattern for a network of the given
// node count. Bit-permutation patterns require the node count to be a
// power of two.
func NewPattern(kind PatternKind, nodes int) (Pattern, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 nodes, got %d", nodes)
	}
	switch kind {
	case UniformRandom:
		return uniformRandom{nodes: nodes}, nil
	case BitReversal, PerfectShuffle, Butterfly, Transpose, BitComplement:
		b := bits.Len(uint(nodes - 1))
		if nodes != 1<<b {
			return nil, fmt.Errorf("traffic: pattern %q needs a power-of-two node count, got %d", kind, nodes)
		}
		return bitPermutation{kind: kind, bits: b}, nil
	case HotspotKind:
		return NewHotspot(nodes, 0, 0.2), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", kind)
	}
}

// uniformRandom picks any node other than the source, uniformly.
type uniformRandom struct{ nodes int }

func (u uniformRandom) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	d := topology.NodeID(rng.Intn(u.nodes - 1))
	if d >= src {
		d++
	}
	return d
}

func (u uniformRandom) Name() string { return string(UniformRandom) }

// bitPermutation implements the paper's address-bit patterns. With source
// bit coordinates (a_{n-1}, a_{n-2}, ..., a_1, a_0):
//
//	perfect shuffle: (a_{n-2}, ..., a_1, a_0, a_{n-1})   — rotate left
//	butterfly:       (a_0, a_{n-2}, ..., a_1, a_{n-1})   — swap MSB and LSB
//	bit reversal:    (a_0, a_1, ..., a_{n-2}, a_{n-1})   — reverse
//	transpose:       swap the low and high halves of the bits
//	complement:      invert every bit
type bitPermutation struct {
	kind PatternKind
	bits int
}

func (b bitPermutation) Dest(src topology.NodeID, _ *rand.Rand) topology.NodeID {
	v := uint(src)
	n := b.bits
	var out uint
	switch b.kind {
	case PerfectShuffle:
		// Rotate left by one: bit i of source becomes bit (i+1) mod n.
		out = ((v << 1) | (v >> (n - 1))) & (1<<n - 1)
	case Butterfly:
		msb := (v >> (n - 1)) & 1
		lsb := v & 1
		out = v &^ (1 | 1<<(n-1))
		out |= msb | lsb<<(n-1)
	case BitReversal:
		for i := 0; i < n; i++ {
			out |= ((v >> i) & 1) << (n - 1 - i)
		}
	case Transpose:
		h := n / 2
		low := v & (1<<h - 1)
		high := v >> h
		out = low<<(n-h) | high
	case BitComplement:
		out = ^v & (1<<n - 1)
	default:
		panic("traffic: bad bit permutation kind " + b.kind)
	}
	return topology.NodeID(out)
}

func (b bitPermutation) Name() string { return string(b.kind) }

// Hotspot sends a fraction of traffic to a single hot node and the rest
// uniformly at random. It models the hotspot workloads that cause tree
// saturation (Pfister & Norton).
type Hotspot struct {
	nodes    int
	hot      topology.NodeID
	fraction float64
	uniform  uniformRandom
}

// NewHotspot returns a hotspot pattern directing fraction of packets at
// node hot. fraction is clamped to [0, 1].
func NewHotspot(nodes int, hot topology.NodeID, fraction float64) *Hotspot {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	return &Hotspot{nodes: nodes, hot: hot, fraction: fraction, uniform: uniformRandom{nodes: nodes}}
}

// Dest implements Pattern.
func (h *Hotspot) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if src != h.hot && rng.Float64() < h.fraction {
		return h.hot
	}
	return h.uniform.Dest(src, rng)
}

// Name implements Pattern.
func (h *Hotspot) Name() string { return fmt.Sprintf("hotspot(%d,%.2f)", h.hot, h.fraction) }
