package traffic

import "math/rand"

// Process decides, cycle by cycle, whether a node generates a new packet.
// Each node owns an independent Process instance.
type Process interface {
	// Generate reports whether the node creates a packet at cycle now.
	// It is called exactly once per node per cycle, in cycle order.
	Generate(now int64, rng *rand.Rand) bool
	// Rate returns the long-run offered load in packets/node/cycle.
	Rate() float64
}

// Bernoulli generates a packet each cycle independently with probability
// p (the standard open-loop injection process for rate sweeps).
type Bernoulli struct{ P float64 }

// Generate implements Process.
func (b Bernoulli) Generate(_ int64, rng *rand.Rand) bool {
	return b.P > 0 && rng.Float64() < b.P
}

// Rate implements Process.
func (b Bernoulli) Rate() float64 { return b.P }

// Periodic generates a packet every Interval cycles, starting at Phase.
// The paper's self-tuning trace (Figure 4) uses a fixed packet
// regeneration interval.
type Periodic struct {
	Interval int64
	Phase    int64
}

// Generate implements Process.
func (p Periodic) Generate(now int64, _ *rand.Rand) bool {
	if p.Interval <= 0 {
		return false
	}
	return (now-p.Phase)%p.Interval == 0 && now >= p.Phase
}

// Rate implements Process.
func (p Periodic) Rate() float64 {
	if p.Interval <= 0 {
		return 0
	}
	return 1 / float64(p.Interval)
}

// Idle never generates packets.
type Idle struct{}

// Generate implements Process.
func (Idle) Generate(int64, *rand.Rand) bool { return false }

// Rate implements Process.
func (Idle) Rate() float64 { return 0 }
