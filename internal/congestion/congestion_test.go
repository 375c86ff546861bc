package congestion

import (
	"testing"

	"repro/internal/topology"
)

type fakeView struct {
	vcs  int
	free map[[2]int]int // (node, port) -> free VCs
}

func (f *fakeView) FreeVCs(node topology.NodeID, port int) int {
	return f.free[[2]int{int(node), port}]
}
func (f *fakeView) VCsPerPort() int { return f.vcs }

func TestNone(t *testing.T) {
	var n None
	if !n.AllowInjection(0, 1, 2) {
		t.Error("None throttled")
	}
	n.Tick(0)
	n.Observe(FeedbackEvent{Kind: PacketDelivered, Marked: true})
	if !n.AllowInjection(1, 1, 2) {
		t.Error("None throttled after feedback")
	}
}

func TestALOAllowsLocalDelivery(t *testing.T) {
	topo := topology.MustNew(8, 2)
	a := NewALO(topo, &fakeView{vcs: 3, free: map[[2]int]int{}})
	if !a.AllowInjection(0, 5, 5) {
		t.Error("self-destined packet throttled")
	}
}

// Node (0,0) -> dst (2,3): useful ports are +x (0) and +y (2).
func aloCase(t *testing.T, freeX, freeY int, want bool) {
	t.Helper()
	topo := topology.MustNew(8, 2)
	view := &fakeView{vcs: 3, free: map[[2]int]int{
		{0, topology.Port(0, topology.Plus)}: freeX,
		{0, topology.Port(1, topology.Plus)}: freeY,
	}}
	a := NewALO(topo, view)
	dst := topo.ID([]int{2, 3})
	if got := a.AllowInjection(0, 0, dst); got != want {
		t.Errorf("ALO free(+x)=%d free(+y)=%d: allow=%v, want %v", freeX, freeY, got, want)
	}
}

func TestALOEveryUsefulHasOneFree(t *testing.T)      { aloCase(t, 1, 1, true) }
func TestALOOneChannelBusyOtherPartial(t *testing.T) { aloCase(t, 0, 1, false) }
func TestALOOneChannelFullyFree(t *testing.T)        { aloCase(t, 0, 3, true) }
func TestALOAllBusy(t *testing.T)                    { aloCase(t, 0, 0, false) }
func TestALOAllFree(t *testing.T)                    { aloCase(t, 3, 3, true) }

func TestALOSingleUsefulPort(t *testing.T) {
	topo := topology.MustNew(8, 2)
	// dst differs only in x: single useful port +x.
	dst := topo.ID([]int{3, 0})
	view := &fakeView{vcs: 3, free: map[[2]int]int{
		{0, topology.Port(0, topology.Plus)}: 1,
	}}
	a := NewALO(topo, view)
	if !a.AllowInjection(0, 0, dst) {
		t.Error("one free VC on the single useful port should allow")
	}
	view.free[[2]int{0, topology.Port(0, topology.Plus)}] = 0
	if a.AllowInjection(0, 0, dst) {
		t.Error("no free VCs should throttle")
	}
}

func TestALOUsesMinimalDirections(t *testing.T) {
	topo := topology.MustNew(8, 2)
	// dst (7,0) from (0,0): minimal direction is -x (wrap), not +x.
	dst := topo.ID([]int{7, 0})
	view := &fakeView{vcs: 3, free: map[[2]int]int{
		{0, topology.Port(0, topology.Plus)}:  3, // should be irrelevant
		{0, topology.Port(0, topology.Minus)}: 0,
	}}
	a := NewALO(topo, view)
	if a.AllowInjection(0, 0, dst) {
		t.Error("ALO considered a non-minimal port")
	}
}

func TestALOName(t *testing.T) {
	a := NewALO(topology.MustNew(4, 2), &fakeView{vcs: 1})
	a.Tick(5) // must not panic
	a.Observe(FeedbackEvent{Kind: PacketInjected, Source: 0})
}

func TestBusyVCThrottlesOnBusyChannels(t *testing.T) {
	topo := topology.MustNew(8, 2)
	view := &fakeView{vcs: 3, free: map[[2]int]int{
		{0, 0}: 3, {0, 1}: 3, {0, 2}: 3, {0, 3}: 3, // all free at node 0
		{1, 0}: 0, {1, 1}: 0, {1, 2}: 1, {1, 3}: 1, // 10 busy at node 1
	}}
	l := NewBusyVC(topo, view, 6)
	if !l.AllowInjection(0, 0, 5) {
		t.Error("idle node throttled")
	}
	if l.AllowInjection(0, 1, 5) {
		t.Error("busy node not throttled (10 busy >= limit 6)")
	}
	l.Tick(0)
}

func TestBusyVCBoundary(t *testing.T) {
	topo := topology.MustNew(8, 2)
	view := &fakeView{vcs: 3, free: map[[2]int]int{
		{0, 0}: 2, {0, 1}: 3, {0, 2}: 3, {0, 3}: 3, // exactly 1 busy
	}}
	if !NewBusyVC(topo, view, 2).AllowInjection(0, 0, 5) {
		t.Error("1 busy < limit 2 should allow")
	}
	if NewBusyVC(topo, view, 1).AllowInjection(0, 0, 5) {
		t.Error("1 busy >= limit 1 should throttle")
	}
}
