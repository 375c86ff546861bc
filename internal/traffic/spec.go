package traffic

import (
	"fmt"
	"math"
	"slices"
)

// This file is the serializable face of the workload layer. A Schedule
// holds live Pattern/Process values and cannot cross a JSON boundary;
// a ScheduleSpec is pure data — pattern kinds and process parameters —
// that compiles into an identical Schedule for any node count. The
// declarative experiment specs (internal/experiments) and sim.Config's
// JSON form carry ScheduleSpecs, never Schedules.

// Process kinds a ProcessSpec can name.
const (
	// BernoulliProcess generates a packet each cycle with probability P.
	BernoulliProcess = "bernoulli"
	// PeriodicProcess generates a packet every Interval cycles from Phase.
	PeriodicProcess = "periodic"
	// IdleProcess never generates packets.
	IdleProcess = "idle"
)

// ProcessSpec is a serializable packet-generation process.
type ProcessSpec struct {
	// Kind is one of bernoulli, periodic or idle.
	Kind string `json:"kind"`
	// P is the per-cycle generation probability (bernoulli only).
	P float64 `json:"p,omitempty"`
	// Interval and Phase parameterize the periodic process.
	Interval int64 `json:"interval,omitempty"`
	Phase    int64 `json:"phase,omitempty"`
}

// Validate checks the process description.
func (p ProcessSpec) Validate() error {
	switch p.Kind {
	case BernoulliProcess:
		if p.P < 0 || p.P > 1 {
			return fmt.Errorf("traffic: bernoulli probability %g out of [0,1]", p.P)
		}
		if p.Interval != 0 || p.Phase != 0 {
			return fmt.Errorf("traffic: bernoulli process takes no interval or phase")
		}
	case PeriodicProcess:
		if p.Interval < 1 {
			return fmt.Errorf("traffic: periodic interval must be >= 1, got %d", p.Interval)
		}
		if p.Phase < 0 {
			return fmt.Errorf("traffic: negative periodic phase %d", p.Phase)
		}
		if p.P != 0 {
			return fmt.Errorf("traffic: periodic process takes no probability")
		}
	case IdleProcess:
		if p.P != 0 || p.Interval != 0 || p.Phase != 0 {
			return fmt.Errorf("traffic: idle process takes no parameters")
		}
	default:
		return fmt.Errorf("traffic: unknown process kind %q (want %s, %s or %s)",
			p.Kind, BernoulliProcess, PeriodicProcess, IdleProcess)
	}
	return nil
}

// Build returns the live Process the spec describes.
func (p ProcessSpec) Build() (Process, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch p.Kind {
	case BernoulliProcess:
		return Bernoulli{P: p.P}, nil
	case PeriodicProcess:
		return Periodic{Interval: p.Interval, Phase: p.Phase}, nil
	default:
		return Idle{}, nil
	}
}

// PhaseSpec is one serializable schedule segment.
type PhaseSpec struct {
	Duration int64       `json:"duration"`
	Pattern  PatternKind `json:"pattern"`
	Process  ProcessSpec `json:"process"`
}

// ScheduleSpec is a serializable piecewise workload. Build compiles it
// for a concrete node count; the same spec compiled for the same count
// yields a behaviorally identical Schedule every time.
type ScheduleSpec struct {
	Phases []PhaseSpec `json:"phases"`
	Loop   bool        `json:"loop,omitempty"`
}

// SteadyDuration is the phase length Steady uses for "forever"; specs
// use the same sentinel so a spec-built steady schedule is identical to
// a Steady-built one.
const SteadyDuration int64 = 1 << 62

// SteadySpec returns a single-phase spec that runs pattern/process
// forever (the declarative form of Steady).
func SteadySpec(pattern PatternKind, process ProcessSpec) *ScheduleSpec {
	return &ScheduleSpec{Phases: []PhaseSpec{
		{Duration: SteadyDuration, Pattern: pattern, Process: process},
	}}
}

// Validate checks the schedule description without compiling it.
// Pattern kinds are checked by name only; size-dependent constraints
// (power-of-two node counts and the like) surface at Build time.
func (s *ScheduleSpec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("traffic: schedule spec needs at least one phase")
	}
	var total int64
	for i, ph := range s.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("traffic: phase %d has non-positive duration %d", i, ph.Duration)
		}
		if ph.Duration > math.MaxInt64-total {
			return fmt.Errorf("traffic: phase %d's duration %d takes the schedule past %d cycles", i, ph.Duration, int64(math.MaxInt64))
		}
		total += ph.Duration
		if !slices.Contains(patternKinds, ph.Pattern) {
			return fmt.Errorf("traffic: phase %d has unknown pattern %q", i, ph.Pattern)
		}
		if err := ph.Process.Validate(); err != nil {
			return fmt.Errorf("traffic: phase %d: %w", i, err)
		}
	}
	return nil
}

// TotalDuration returns the sum of phase durations (one iteration).
func (s *ScheduleSpec) TotalDuration() int64 {
	var total int64
	for _, ph := range s.Phases {
		total += ph.Duration
	}
	return total
}

// Build compiles the spec for a network of the given node count.
func (s *ScheduleSpec) Build(nodes int) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	phases := make([]Phase, 0, len(s.Phases))
	for i, ph := range s.Phases {
		pat, err := NewPattern(ph.Pattern, nodes)
		if err != nil {
			return nil, fmt.Errorf("traffic: phase %d: %w", i, err)
		}
		proc, err := ph.Process.Build()
		if err != nil {
			return nil, fmt.Errorf("traffic: phase %d: %w", i, err)
		}
		phases = append(phases, Phase{Duration: ph.Duration, Pattern: pat, Process: proc})
	}
	return NewSchedule(phases, s.Loop)
}

// PaperBurstySpec is the declarative form of PaperBurstySchedule: the
// alternating low/high-load workload of the paper's Figure 6, as pure
// data. Zero option values select the paper's parameters.
func PaperBurstySpec(opt PaperBurstyOptions) *ScheduleSpec {
	opt = opt.WithDefaults()
	low := PhaseSpec{
		Duration: opt.LowDuration,
		Pattern:  UniformRandom,
		Process:  ProcessSpec{Kind: PeriodicProcess, Interval: opt.LowInterval},
	}
	var phases []PhaseSpec
	for _, b := range opt.Bursts {
		phases = append(phases, low, PhaseSpec{
			Duration: opt.HighDuration,
			Pattern:  b.Pattern,
			Process:  ProcessSpec{Kind: PeriodicProcess, Interval: opt.HighInterval},
		})
	}
	phases = append(phases, low)
	return &ScheduleSpec{Phases: phases}
}
