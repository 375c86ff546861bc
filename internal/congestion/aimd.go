package congestion

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// AIMD window defaults.
const (
	// DefaultWindowMin is the floor (and initial value) of the
	// per-source injection window, in packets.
	DefaultWindowMin = 1
	// DefaultWindowMax caps the window: at 64 in-flight packets per
	// source the window is effectively open at any sub-saturation load,
	// so the cap only bites runaway growth.
	DefaultWindowMax = 64
)

func init() {
	Register("aimd", WindowMinField|WindowMaxField|MarkThresholdField, func(p Params, _, _ int64) error {
		_, _, err := AIMDWindow(p.WindowMin, p.WindowMax)
		return err
	}, func(env Env) (Controller, error) {
		wmin, wmax, err := AIMDWindow(env.Params.WindowMin, env.Params.WindowMax)
		if err != nil {
			return nil, err
		}
		return NewAIMD(env.Global.Nodes(), wmin, wmax), nil
	})
}

// AIMDWindow resolves a configured AIMD window, in packets: a zero
// bound selects DefaultWindowMin or DefaultWindowMax. The resolved
// window must satisfy 1 <= min <= max <= math.MaxInt32. The aimd
// factory and its check both resolve windows through here.
func AIMDWindow(wmin, wmax int) (int, int, error) {
	if wmin == 0 {
		wmin = DefaultWindowMin
	}
	if wmax == 0 {
		wmax = DefaultWindowMax
	}
	if wmin < 1 {
		return 0, 0, fmt.Errorf("congestion: aimd window min %d below 1", wmin)
	}
	if wmax < wmin {
		return 0, 0, fmt.Errorf("congestion: aimd window max %d below min %d (unset bounds are %d and %d)",
			wmax, wmin, DefaultWindowMin, DefaultWindowMax)
	}
	// AllowInjection compares the in-flight count with int32(window).
	if wmax > math.MaxInt32 {
		return 0, 0, fmt.Errorf("congestion: aimd window max %d above %d", wmax, math.MaxInt32)
	}
	return wmin, wmax, nil
}

// AIMD is the window-based controller of Jain, Ramakrishnan & Chiu
// (DEC-TR-506) transplanted from end hosts to NoC sources, using the
// TCP congestion-avoidance state machine: each source may have at most
// window(w) packets in flight; every unmarked delivery grows the window
// additively by 1/w (one packet per window's worth of deliveries), and
// a delivery whose packet was buffered at a congestion-marked router
// halves the window. One halving per window in flight: after a halve,
// marks are ignored until as many packets as were then outstanding have
// drained, so a single congestion episode — whose marks arrive as a
// burst of marked deliveries — costs one multiplicative decrease, not
// one per packet (TCP Reno's "once per RTT" rule, made deterministic by
// counting deliveries instead of clock time).
type AIMD struct {
	wmin, wmax float64
	win        []float64 // per-source window, in packets
	inflight   []int32   // injected but not yet delivered
	guard      []int32   // deliveries to ignore marks for after a halve
}

// NewAIMD returns an AIMD controller for nodes sources with the given
// window bounds (packets; wmin >= 1). Every window starts at wmin and
// grows only on evidence of an uncongested network.
func NewAIMD(nodes, wmin, wmax int) *AIMD {
	a := &AIMD{
		wmin:     float64(wmin),
		wmax:     float64(wmax),
		win:      make([]float64, nodes),
		inflight: make([]int32, nodes),
		guard:    make([]int32, nodes),
	}
	for i := range a.win {
		a.win[i] = a.wmin
	}
	return a
}

// AllowInjection implements Controller: a source may inject while its
// in-flight packet count is below its window.
//
//stcc:hotpath
func (a *AIMD) AllowInjection(_ int64, node, _ topology.NodeID) bool {
	return a.inflight[node] < int32(a.win[node])
}

// Observe implements Controller: injections and deliveries maintain the
// in-flight count, and each delivery adjusts the source's window —
// multiplicative decrease on a mark, additive increase otherwise.
//
//stcc:hotpath
func (a *AIMD) Observe(ev FeedbackEvent) {
	switch ev.Kind {
	case PacketInjected:
		a.inflight[ev.Source]++
	case PacketDelivered:
		s := ev.Source
		if a.inflight[s] > 0 {
			a.inflight[s]--
		}
		if a.guard[s] > 0 {
			// Still draining the window that already paid for a halve;
			// neither further decreases nor growth until it clears.
			a.guard[s]--
			return
		}
		if ev.Marked {
			w := a.win[s] / 2
			if w < a.wmin {
				w = a.wmin
			}
			a.win[s] = w
			a.guard[s] = a.inflight[s]
		} else {
			w := a.win[s] + 1/a.win[s]
			if w > a.wmax {
				w = a.wmax
			}
			a.win[s] = w
		}
	}
}

// Tick implements Controller.
func (a *AIMD) Tick(int64) {}

// Window returns source node's current window in packets (tests and
// traces).
func (a *AIMD) Window(node topology.NodeID) float64 { return a.win[node] }

// InFlight returns source node's injected-but-undelivered packet count.
func (a *AIMD) InFlight(node topology.NodeID) int { return int(a.inflight[node]) }
