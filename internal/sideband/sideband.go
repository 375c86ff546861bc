// Package sideband models the paper's dedicated side-band network used to
// gather global congestion information. Every node contributes its full
// virtual-channel buffer count and the flits it delivered in the last
// gather window; dimension-wise aggregation over a full-duplex k-ary
// n-cube completes in g = (k/2) * h * n cycles (h = per-hop side-band
// delay), so every node sees a g-cycle-delayed snapshot of the whole
// network every g cycles.
//
// Because every node receives the identical aggregate, the model keeps a
// single snapshot stream; per-node state would be byte-for-byte copies.
// The optional narrow side-band mode emulates the technical report's
// reduced-width (e.g. 9-bit) side-band channels by quantizing the
// transported values.
package sideband

import (
	"fmt"
	"math/rand"

	"repro/internal/enum"
)

// Snapshot is one global aggregate as observed by every node.
type Snapshot struct {
	// Taken is the cycle at which the network state was measured.
	Taken int64
	// Visible is the cycle from which nodes can act on the snapshot
	// (Taken + gather duration).
	Visible int64
	// FullBuffers is the network-wide count of full virtual-channel edge
	// buffers at cycle Taken.
	FullBuffers int
	// DeliveredFlits is the network-wide number of flits delivered in
	// the g cycles preceding Taken.
	DeliveredFlits int
}

// Source supplies the instantaneous global quantities the side-band
// aggregates. The router fabric implements this.
type Source interface {
	// FullVCBuffers returns the current number of full virtual-channel
	// edge buffers on physical channels, network wide.
	FullVCBuffers() int
	// DeliveredFlits returns the number of flits delivered since the
	// source was built.
	DeliveredFlits() int64
}

// Sink receives snapshots when they become visible to the nodes.
type Sink interface {
	OnSnapshot(s Snapshot)
}

// Mechanism selects how global information is distributed. The paper
// discusses three alternatives (Section 3.1) and evaluates the dedicated
// side-band; the other two are modeled here by their dominant defect so
// their cost/quality trade-off can be measured.
type Mechanism uint8

const (
	// Dedicated is an exclusive side-band with guaranteed delay bounds
	// (the paper's choice): every snapshot arrives exactly one gather
	// duration after it was taken.
	Dedicated Mechanism = iota
	// MetaPacket floods special packets through the data network. Delay
	// bounds are not guaranteed: snapshot delivery slows down with the
	// congestion it is reporting (delay grows linearly with the full-
	// buffer fraction, up to 3x the gather duration when every buffer
	// is full).
	MetaPacket
	// Piggyback rides on normal packets, so all-to-all coverage is not
	// guaranteed: a snapshot reaches the nodes only with probability
	// PiggybackP; otherwise they keep acting on stale information.
	Piggyback
)

// mechanisms is Mechanism's one name table: String, the text codec of
// sim.Config's JSON form and Config.Validate's range check read it.
var mechanisms = enum.New[Mechanism]("sideband", "mechanism", "sideband", "metapacket", "piggyback")

func (m Mechanism) String() string                { return mechanisms.String(m) }
func (m Mechanism) MarshalText() ([]byte, error)  { return mechanisms.MarshalText(m) }
func (m *Mechanism) UnmarshalText(b []byte) error { return mechanisms.UnmarshalText(m, b) }

// Config describes the side-band.
type Config struct {
	// K, N are the network radix and dimension count.
	K, N int
	// HopDelay is the neighbor-to-neighbor side-band latency in cycles
	// (paper: h = 2).
	HopDelay int
	// Bits, when positive, emulates a narrow side-band whose per-field
	// width is Bits: transported counts are quantized by dropping
	// low-order bits so the value fits (the tech report's 9-bit channel).
	// Zero means full precision.
	Bits int
	// Mechanism selects the information distribution model.
	Mechanism Mechanism
	// TotalBuffers normalizes congestion for the MetaPacket delay model;
	// required (positive) for that mechanism.
	TotalBuffers int
	// PiggybackP is the per-gather delivery probability for Piggyback;
	// zero selects 0.7.
	PiggybackP float64
	// Seed drives the Piggyback loss process.
	Seed int64
}

// GatherDuration returns g = (k/2)*h*n, the cycles one all-to-all
// aggregation takes.
func (c Config) GatherDuration() int64 {
	return int64(c.K/2) * int64(c.HopDelay) * int64(c.N)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 2 || c.N < 1 {
		return fmt.Errorf("sideband: invalid network %d-ary %d-cube", c.K, c.N)
	}
	if c.HopDelay < 1 {
		return fmt.Errorf("sideband: hop delay must be >= 1, got %d", c.HopDelay)
	}
	// quantize's limit 1<<Bits - 1 turns negative past 63 bits.
	if c.Bits < 0 || c.Bits > 63 {
		return fmt.Errorf("sideband: width %d out of [0, 63] bits", c.Bits)
	}
	if err := mechanisms.Check(c.Mechanism); err != nil {
		return err
	}
	if c.Mechanism == MetaPacket && c.TotalBuffers <= 0 {
		return fmt.Errorf("sideband: MetaPacket mechanism needs TotalBuffers")
	}
	if c.PiggybackP < 0 || c.PiggybackP > 1 {
		return fmt.Errorf("sideband: PiggybackP %g out of [0,1]", c.PiggybackP)
	}
	return nil
}

// Network is the side-band state machine. Call Tick exactly once per
// simulated cycle.
type Network struct {
	cfg      Config
	g        int64
	src      Source
	sinks    []Sink
	gathered int64      // src's delivered-flit count at the last gather
	inFly    []Snapshot // measured, not yet visible
	rng      *rand.Rand // Piggyback loss process
	pp       float64
}

// New constructs a side-band over src. Panics on invalid config (configs
// are validated earlier at the simulation boundary).
func New(cfg Config, src Source) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{cfg: cfg, g: cfg.GatherDuration(), src: src}
	if cfg.Mechanism == Piggyback {
		n.pp = cfg.PiggybackP
		if n.pp == 0 {
			n.pp = 0.7
		}
		n.rng = rand.New(rand.NewSource(cfg.Seed + 0x5eedba5e))
	}
	return n
}

// GatherDuration returns the configured g in cycles.
func (n *Network) GatherDuration() int64 { return n.g }

// HopDelay returns the neighbor-to-neighbor side-band latency in cycles.
func (n *Network) HopDelay() int { return n.cfg.HopDelay }

// Subscribe registers a sink for visible snapshots.
func (n *Network) Subscribe(s Sink) { n.sinks = append(n.sinks, s) }

// quantize emulates transporting v over a Bits-wide side-band: the value
// is right-shifted until it fits, then restored, losing low-order
// precision exactly as a truncated mantissa encoding would.
func (n *Network) quantize(v int) int {
	if n.cfg.Bits <= 0 || v < 0 {
		return v
	}
	limit := 1<<n.cfg.Bits - 1
	shift := 0
	for v>>shift > limit {
		shift++
	}
	return (v >> shift) << shift
}

// Tick advances the side-band to cycle now. On gather boundaries it
// measures the network and schedules the snapshot to become visible g
// cycles later; it publishes any snapshot whose visibility time arrives.
func (n *Network) Tick(now int64) {
	if now%n.g == 0 {
		delivered := n.src.DeliveredFlits()
		s := Snapshot{
			Taken:          now,
			Visible:        now + n.g,
			FullBuffers:    n.quantize(n.src.FullVCBuffers()),
			DeliveredFlits: n.quantize(int(delivered - n.gathered)),
		}
		n.gathered = delivered
		switch n.cfg.Mechanism {
		case MetaPacket:
			// Meta-packets contend with the traffic they report on:
			// delivery slows with congestion, up to 3x the gather
			// duration at full occupancy.
			load := float64(s.FullBuffers) / float64(n.cfg.TotalBuffers)
			s.Visible += int64(2 * load * float64(n.g))
			n.inFly = append(n.inFly, s)
		case Piggyback:
			// Piggybacked information only reaches the nodes when
			// enough carrier traffic flows; otherwise the snapshot is
			// lost and nodes act on stale state.
			if n.rng.Float64() < n.pp {
				n.inFly = append(n.inFly, s)
			}
		default:
			n.inFly = append(n.inFly, s)
		}
	}
	for len(n.inFly) > 0 && n.inFly[0].Visible <= now {
		s := n.inFly[0]
		// Shift rather than re-slice: inFly holds at most a couple of
		// snapshots, and keeping the backing array means the steady-state
		// tick cycle never reallocates it.
		copy(n.inFly, n.inFly[1:])
		n.inFly = n.inFly[:len(n.inFly)-1]
		for _, sink := range n.sinks {
			sink.OnSnapshot(s)
		}
	}
}
