package congestion

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sideband"
	"repro/internal/topology"
)

func init() {
	// A notified source is gated until now + staleness, which must fit
	// an int64 at every cycle of the run.
	Register("notify", StalenessField|MarkThresholdField, func(p Params, _, cycles int64) error {
		if s := p.Staleness; s < 0 {
			return fmt.Errorf("congestion: negative notification staleness %d", s)
		} else if s > math.MaxInt64-cycles {
			return fmt.Errorf("congestion: staleness %d overflows the gating deadline of a %d-cycle run (at most %d)", s, cycles, math.MaxInt64-cycles)
		}
		return nil
	}, func(env Env) (Controller, error) {
		staleness := env.Params.Staleness
		if staleness == 0 {
			// Two gather durations: long enough that a persistently
			// marked router (one rising edge, no refresh) gates its
			// neighborhood for a control-loop round trip, short enough
			// that a cleared hotspot releases sources quickly.
			staleness = 2 * env.Side.GatherDuration()
		}
		return NewNotify(env.Topo, env.Global, env.Side.HopDelay(), staleness), nil
	})
}

// Notify is notification-based throttling (the adaptive-routing
// notification family): a router whose congestion bit rises broadcasts
// a side-band notification, each source receives it after the hop-delay
// scaled propagation latency, and a notified source stops injecting
// until the notification goes stale. Staleness decay is the only
// release path — there are no "clear" messages — so a transient hotspot
// gates sources for exactly one staleness window past its last rising
// edge, and a persistent one keeps refreshing the gate. Packet events
// play no part.
type Notify struct {
	view      GlobalView
	notifier  *sideband.Notifier
	prevCong  []uint64 // the congestion bits the last edge scan saw
	staleness int64
	until     []int64 // per-source: injection gated while now < until
}

// NewNotify returns a Notify controller over topo that reads the
// routers' congestion bits from view, sends notices over a side-band
// with the given per-hop delay, and gates a notified source for
// staleness cycles.
func NewNotify(topo *topology.Torus, view GlobalView, hopDelay int, staleness int64) *Notify {
	return &Notify{
		view:      view,
		notifier:  sideband.NewNotifier(topo, hopDelay),
		prevCong:  make([]uint64, (topo.Nodes()+63)>>6),
		staleness: staleness,
		until:     make([]int64, topo.Nodes()),
	}
}

// UsesNotifications implements NotificationUser.
func (t *Notify) UsesNotifications() {}

// AllowInjection implements Controller: a source injects freely unless a
// congestion notification younger than the staleness window gates it.
//
//stcc:hotpath
func (t *Notify) AllowInjection(now int64, node, _ topology.NodeID) bool {
	return now >= t.until[node]
}

// Tick implements Controller. It first broadcasts a notification for
// every router whose congestion bit rose in the network cycle that just
// ran (now-1): only rising edges broadcast, so a persistently marked
// router costs one broadcast, not one per cycle. It then gates every
// source a notice reaches at now until now+staleness; a refresh extends
// the gate and nothing shortens it. Every notice takes at least one
// cycle, so an edge is never acted on in the cycle it rose.
//
//stcc:hotpath
func (t *Notify) Tick(now int64) {
	for wi, cur := range t.view.CongestionBits() {
		rise := cur &^ t.prevCong[wi]
		t.prevCong[wi] = cur
		for base := wi << 6; rise != 0; rise &= rise - 1 {
			t.notifier.Broadcast(now-1, topology.NodeID(base+bits.TrailingZeros64(rise)))
		}
	}
	for _, src := range t.notifier.Deliver(now) {
		t.until[src] = now + t.staleness
	}
}

// Observe implements Controller.
func (t *Notify) Observe(FeedbackEvent) {}
