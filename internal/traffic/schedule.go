package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/topology"
)

// Phase is one segment of a bursty load schedule: for Duration cycles,
// every node runs Process with destinations drawn from Pattern.
type Phase struct {
	Duration int64
	Pattern  Pattern
	Process  Process
}

// Schedule is a piecewise workload: a sequence of phases followed by an
// optional steady tail (the last phase repeats if Loop is set, otherwise
// the network goes idle after the schedule ends).
type Schedule struct {
	Phases []Phase
	Loop   bool

	total int64
}

// NewSchedule validates and returns a schedule.
func NewSchedule(phases []Phase, loop bool) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("traffic: schedule needs at least one phase")
	}
	var total int64
	for i, ph := range phases {
		if ph.Duration <= 0 {
			return nil, fmt.Errorf("traffic: phase %d has non-positive duration %d", i, ph.Duration)
		}
		if ph.Duration > math.MaxInt64-total {
			return nil, fmt.Errorf("traffic: phase %d's duration %d takes the schedule past %d cycles", i, ph.Duration, int64(math.MaxInt64))
		}
		if ph.Pattern == nil || ph.Process == nil {
			return nil, fmt.Errorf("traffic: phase %d missing pattern or process", i)
		}
		total += ph.Duration
	}
	return &Schedule{Phases: phases, Loop: loop, total: total}, nil
}

// Steady returns a single-phase schedule that runs pattern/process
// forever.
func Steady(pattern Pattern, process Process) *Schedule {
	s, err := NewSchedule([]Phase{{Duration: 1 << 62, Pattern: pattern, Process: process}}, false)
	if err != nil {
		panic(err)
	}
	return s
}

// TotalDuration returns the sum of phase durations (one iteration).
func (s *Schedule) TotalDuration() int64 { return s.total }

// At returns the phase active at cycle now, or nil when the schedule has
// ended (non-looping schedules only).
func (s *Schedule) At(now int64) *Phase {
	if now < 0 {
		return nil
	}
	if now >= s.total {
		if !s.Loop {
			return nil
		}
		now %= s.total
	}
	for i := range s.Phases {
		if now < s.Phases[i].Duration {
			return &s.Phases[i]
		}
		now -= s.Phases[i].Duration
	}
	return nil
}

// Generate reports whether a node creates a packet at cycle now and, if
// so, its destination.
func (s *Schedule) Generate(now int64, src topology.NodeID, rng *rand.Rand) (dst topology.NodeID, ok bool) {
	ph := s.At(now)
	if ph == nil || !ph.Process.Generate(now, rng) {
		return 0, false
	}
	d := ph.Pattern.Dest(src, rng)
	if d == src {
		// Fixed point of a permutation pattern: nothing to send.
		return 0, false
	}
	return d, true
}

// BurstSpec describes one high-load burst of the paper's Figure 6
// schedule.
type BurstSpec struct {
	Pattern PatternKind
}

// PaperBurstyOptions configures PaperBurstySchedule. Zero values select
// the paper's parameters scaled to the given node count.
type PaperBurstyOptions struct {
	// LowInterval is the per-node packet regeneration interval during
	// low-load phases (paper: 1500 cycles -> 0.00067 packets/node/cycle).
	LowInterval int64
	// HighInterval is the regeneration interval during bursts (paper:
	// 15 cycles -> 0.067 packets/node/cycle, roughly three times the
	// network's saturation load).
	HighInterval int64
	// LowDuration and HighDuration are the phase lengths in cycles.
	LowDuration  int64
	HighDuration int64
	// Bursts lists the communication pattern of each high-load burst
	// (paper: uniform random, bit reversal, perfect shuffle, butterfly).
	Bursts []BurstSpec
}

// WithDefaults fills zero option values with the paper's parameters
// (the defaults of the "stcc bursty" flags).
func (opt PaperBurstyOptions) WithDefaults() PaperBurstyOptions {
	if opt.LowInterval == 0 {
		opt.LowInterval = 1500
	}
	if opt.HighInterval == 0 {
		opt.HighInterval = 15
	}
	if opt.LowDuration == 0 {
		opt.LowDuration = 50_000
	}
	if opt.HighDuration == 0 {
		opt.HighDuration = 75_000
	}
	if len(opt.Bursts) == 0 {
		opt.Bursts = []BurstSpec{
			{Pattern: UniformRandom},
			{Pattern: BitReversal},
			{Pattern: PerfectShuffle},
			{Pattern: Butterfly},
		}
	}
	return opt
}

// PaperBurstySchedule builds the alternating low/high load of the paper's
// Figure 6: low-load uniform-random phases separated by high-load bursts
// whose communication pattern changes each burst. It is PaperBurstySpec
// compiled for the given node count.
func PaperBurstySchedule(nodes int, opt PaperBurstyOptions) (*Schedule, error) {
	return PaperBurstySpec(opt).Build(nodes)
}
