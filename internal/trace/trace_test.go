package trace

import (
	"strings"
	"testing"

	"repro/internal/packet"
)

func ev(cycle int64, kind Kind, pkt int64) Event {
	return Event{Cycle: cycle, Kind: kind, Packet: packet.ID(pkt), Src: 1, Dst: 2, Node: 3}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Injected: "injected", Routed: "routed", Delivered: "delivered",
		Suspected: "suspected", RecoveryStarted: "recovery-start",
		RecoveryCompleted: "recovery-done",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestEventString(t *testing.T) {
	s := ev(5, Routed, 9).String()
	if !strings.Contains(s, "routed") || !strings.Contains(s, "pkt 9") {
		t.Errorf("event string = %q", s)
	}
}
