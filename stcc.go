// Package stcc (Self-Tuned Congestion Control) reproduces "Self-Tuned
// Congestion Control for Multiprocessor Networks" (Thottethodi, Lebeck &
// Mukherjee, HPCA 2001) as a Go library.
//
// It contains a cycle-level wormhole network simulator for k-ary n-cube
// multiprocessor interconnects — virtual channels, fully adaptive minimal
// routing, Duato-style deadlock avoidance and Disha-style deadlock
// recovery — plus the paper's contribution: a source-throttling
// congestion controller driven by a globally gathered full-buffer count
// whose threshold tunes itself from throughput feedback.
//
// Quick start:
//
//	cfg := stcc.NewConfig()              // the paper's 16-ary 2-cube
//	cfg.Rate = 0.03                      // packets/node/cycle (overload)
//	cfg.Scheme = stcc.Scheme{Kind: stcc.SelfTuned}
//	res, err := stcc.Run(cfg)
//	fmt.Println(res.AcceptedFlits)       // delivered flits/node/cycle
//
// Every table and figure of the paper's evaluation, plus the extension
// studies, is a named Experiment: LookupExperiment("fig3") returns its
// grid builder and formatter, and Experiment.Run executes it. The
// cmd/stcc-paper binary regenerates them all, at Quick or Paper scale,
// and writes them as CSV.
//
// The package is a thin facade: the implementation lives in
// internal/{topology,packet,router,traffic,sideband,core,congestion,sim,
// experiments}, and the types below are aliases so that the facade and
// the internals are always in sync.
package stcc

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/sideband"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Core configuration and results.
type (
	// Config describes one simulation run; see NewConfig for the
	// paper's defaults.
	Config = sim.Config
	// Scheme selects and parameterizes the congestion controller.
	Scheme = sim.Scheme
	// SchemeKind names a congestion control scheme.
	SchemeKind = sim.SchemeKind
	// EstimatorKind names a congestion estimator.
	EstimatorKind = core.EstimatorKind
	// Result is one run's measurements.
	Result = sim.Result
	// Engine is a configured simulation; use New + Run for control over
	// the underlying fabric, or the package-level Run for one-shot use.
	Engine = sim.Engine
)

// Congestion control schemes (the paper's evaluation matrix).
const (
	// Base applies no congestion control.
	Base = sim.Base
	// ALO is the At-Least-One local-estimation baseline.
	ALO = sim.ALO
	// BusyVCScheme is the Lopez et al. busy-VC local baseline.
	BusyVCScheme = sim.BusyVC
	// StaticGlobal throttles against a fixed global threshold.
	StaticGlobal = sim.StaticGlobal
	// SelfTuned is the paper's self-tuned global scheme.
	SelfTuned = sim.SelfTuned
	// HillClimbOnly disables the local-maximum avoidance mechanism.
	HillClimbOnly = sim.HillClimbOnly
	// AIMD throttles with a per-source additive-increase /
	// multiplicative-decrease injection window driven by DECbit
	// congestion marks echoed on packet delivery.
	AIMD = sim.AIMD
	// Notify gates sources on side-band congestion notifications from
	// marked routers, with a staleness horizon.
	Notify = sim.Notify
	// CustomScheme runs the Controller a user-supplied Factory builds
	// (Scheme.Custom).
	CustomScheme = sim.Custom
)

// Feedback event kinds delivered to Controllers.
const (
	// PacketInjected fires when a source's packet enters its injection
	// channel.
	PacketInjected = congestion.PacketInjected
	// PacketDelivered fires when a packet reaches its destination;
	// Marked echoes the DECbit congestion mark.
	PacketDelivered = congestion.PacketDelivered
)

// Congestion estimators.
const (
	// LinearEstimator extrapolates from the last two side-band
	// snapshots (the paper's default).
	LinearEstimator = core.LinearEstimator
	// LastValueEstimator holds the last snapshot.
	LastValueEstimator = core.LastValueEstimator
)

// DeadlockMode selects avoidance or recovery.
type DeadlockMode = router.DeadlockMode

// Deadlock modes.
const (
	// Avoidance reserves an escape virtual channel (Duato's protocol).
	Avoidance = router.Avoidance
	// Recovery detects deadlock by timeout and drains suspects through
	// a token-serialized deadlock-buffer lane (Disha).
	Recovery = router.Recovery
)

// Workload types.
type (
	// PatternKind names a communication pattern.
	PatternKind = traffic.PatternKind
	// Pattern maps sources to destinations.
	Pattern = traffic.Pattern
	// Process decides when nodes generate packets.
	Process = traffic.Process
	// Phase is one segment of a bursty schedule.
	Phase = traffic.Phase
	// Schedule is a piecewise workload.
	Schedule = traffic.Schedule
	// Bernoulli generates packets with a fixed per-cycle probability.
	Bernoulli = traffic.Bernoulli
	// Periodic generates a packet every Interval cycles.
	Periodic = traffic.Periodic
)

// Communication patterns (the paper evaluates the first four).
const (
	// UniformRandom picks destinations uniformly.
	UniformRandom = traffic.UniformRandom
	// BitReversal reverses the address bits.
	BitReversal = traffic.BitReversal
	// PerfectShuffle rotates the address bits left.
	PerfectShuffle = traffic.PerfectShuffle
	// Butterfly swaps the most and least significant address bits.
	Butterfly = traffic.Butterfly
	// Transpose swaps the address halves.
	Transpose = traffic.Transpose
	// BitComplement inverts the address bits.
	BitComplement = traffic.BitComplement
)

// Extension points for custom controllers and analysis.
type (
	// Controller is the congestion-control contract: consulted before
	// each packet injection, ticked once per cycle, and fed packet
	// events. Every scheme implements it.
	Controller = congestion.Controller
	// Factory builds a Controller for one run from its Env; set one as
	// Scheme.Custom to run a custom scheme.
	Factory = congestion.Factory
	// Env is what a Factory may wire a controller to: the topology,
	// the router-local and global views, the side-band (Subscribe a
	// value with OnSnapshot(Snapshot) to receive global snapshots) and
	// the scheme parameters.
	Env = congestion.Env
	// FeedbackEvent is one packet observation delivered to a
	// Controller (injection, or delivery with its DECbit mark).
	FeedbackEvent = congestion.FeedbackEvent
	// FeedbackKind discriminates feedback events.
	FeedbackKind = congestion.FeedbackKind
	// LocalView exposes router-local channel state to controllers.
	LocalView = congestion.LocalView
	// GlobalView exposes the network size and the routers' congestion
	// bits to controller factories alongside LocalView.
	GlobalView = congestion.GlobalView
	// Snapshot is one globally gathered side-band aggregate; a value
	// with OnSnapshot(Snapshot) that a Factory subscribes through
	// Env.Side receives them.
	Snapshot = sideband.Snapshot
	// TunerConfig parameterizes the self-tuning mechanism.
	TunerConfig = core.TunerConfig
	// Tuner is the hill-climbing threshold policy.
	Tuner = core.Tuner
	// TracePoint is one tuning-period record of the controller state.
	TracePoint = core.TracePoint
	// Series is a fixed-interval time series of measurements.
	Series = stats.Series
	// Event is one packet lifecycle event (injection, routing,
	// delivery, deadlock suspicion/recovery). To receive them, set
	// Engine.Fabric().OnEvent before the run.
	Event = trace.Event
	// EventKind classifies lifecycle events.
	EventKind = trace.Kind
	// Torus is a k-ary n-cube topology.
	Torus = topology.Torus
	// NodeID identifies a network node.
	NodeID = topology.NodeID
)

// NewConfig returns the paper's simulation parameters: a 16-ary 2-cube
// (256 nodes), 3 virtual channels of depth 8, 16-flit packets, a
// side-band with hop delay 2 (gather duration 32 cycles), deadlock
// recovery, uniform random traffic, and 600k cycles with 100k warm-up.
func NewConfig() Config { return sim.NewConfig() }

// Run executes one simulation.
func Run(cfg Config) (Result, error) { return sim.Run(cfg) }

// RunContext executes one simulation under a context: cancellation
// stops the run between cycles and returns ctx's error.
func RunContext(ctx context.Context, cfg Config) (Result, error) { return sim.RunContext(ctx, cfg) }

// New builds an Engine for callers that need access to the fabric.
func New(cfg Config) (*Engine, error) { return sim.New(cfg) }

// NewTorus constructs a k-ary n-cube topology.
func NewTorus(k, n int) (*Torus, error) { return topology.New(k, n) }

// NewPattern constructs a built-in communication pattern for a network
// of the given node count.
func NewPattern(kind PatternKind, nodes int) (Pattern, error) {
	return traffic.NewPattern(kind, nodes)
}

// NewHotspotPattern returns a pattern that sends the given fraction of
// packets to one hot node and the rest uniformly at random — the classic
// tree-saturation workload.
func NewHotspotPattern(nodes int, hot NodeID, fraction float64) Pattern {
	return traffic.NewHotspot(nodes, hot, fraction)
}

// NewSchedule builds a piecewise workload schedule.
func NewSchedule(phases []Phase, loop bool) (*Schedule, error) {
	return traffic.NewSchedule(phases, loop)
}

// Steady returns a single-phase schedule that runs forever.
func Steady(pattern Pattern, process Process) *Schedule {
	return traffic.Steady(pattern, process)
}

// PaperBurstySchedule builds the alternating low/high-load workload of
// the paper's Figure 6.
func PaperBurstySchedule(nodes int, opt traffic.PaperBurstyOptions) (*Schedule, error) {
	return traffic.PaperBurstySchedule(nodes, opt)
}

// BurstyOptions configures PaperBurstySchedule.
type BurstyOptions = traffic.PaperBurstyOptions

// DefaultTunerConfig returns the paper's tuning parameters for a network
// with the given total VC buffer count (increment 1%, decrement 4%, drop
// trigger 75%, r = 5).
func DefaultTunerConfig(totalBuffers int) TunerConfig {
	return core.DefaultTunerConfig(totalBuffers)
}

// Experiment run lengths and the rate-sweep types analysis consumes.
type (
	// Scale controls experiment run lengths.
	Scale = experiments.Scale
	// Curve is a named rate-sweep result.
	Curve = experiments.Curve
	// RatePoint is one point of a rate sweep.
	RatePoint = experiments.RatePoint
	// Runner executes experiment grids on a bounded worker pool; the
	// zero value uses every available CPU. Results are identical for
	// any worker count.
	Runner = experiments.Runner
)

// Analysis helpers.
type (
	// Knee summarizes where a rate sweep saturates.
	Knee = analysis.Knee
	// Stat is a mean with dispersion over replicated runs.
	Stat = analysis.Stat
	// Replication aggregates one configuration over several seeds.
	Replication = analysis.Replication
	// CompareRow is one scheme's aggregated outcome from CompareSchemes.
	CompareRow = analysis.CompareRow
)

// FindKnee locates the saturation knee of a rate sweep.
func FindKnee(points []RatePoint) (Knee, error) { return analysis.FindKnee(points) }

// Replicate runs one configuration over several seeds on r's worker
// pool and aggregates the headline metrics (mean, standard deviation,
// min, max). Runner{} runs on every available CPU.
func Replicate(r Runner, cfg Config, seeds []int64) (Replication, error) {
	return analysis.Replicate(r, cfg, seeds)
}

// CompareSchemes runs several congestion control schemes on the same
// configuration and seeds on r's worker pool. Runner{} runs on every
// available CPU.
func CompareSchemes(r Runner, cfg Config, schemes []Scheme, seeds []int64) ([]CompareRow, error) {
	return analysis.Compare(r, cfg, schemes, seeds)
}

// Heatmap renders per-node values of a k x k network as an ASCII
// intensity grid (useful with Engine.Fabric().FullVCBuffersAt to watch
// tree saturation form).
func Heatmap(values []float64, k int) string { return analysis.Heatmap(values, k) }

// Experiment scales.
var (
	// QuickScale regenerates figure shapes in minutes.
	QuickScale = experiments.Quick
	// PaperScale is the published 600k-cycle methodology.
	PaperScale = experiments.Paper
)

// Experiments: one registry entry per table, figure and extension study
// of the paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured
// record and "stcc list" for the names.
type (
	// Experiment is a named grid builder plus the formatter that prints
	// the rows the paper reports; Run executes it.
	Experiment = experiments.Entry
	// ExperimentContext carries an experiment's runner, scale, output
	// sink and optional CSV directory.
	ExperimentContext = experiments.RunContext
)

// LookupExperiment returns the named experiment ("tab1", "fig1".."fig7",
// "ext1".."ext14").
func LookupExperiment(name string) (Experiment, bool) { return experiments.Lookup(name) }
