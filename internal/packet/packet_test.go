package packet

import (
	"testing"
)

func TestNewDefaults(t *testing.T) {
	p := New(7, 3, 9, 16, 42)
	if p.ID != 7 || p.Src != 3 || p.Dst != 9 || p.Length != 16 {
		t.Fatalf("fields wrong: %+v", p)
	}
	if p.InjectedAt != -1 || p.DeliveredAt != -1 {
		t.Error("injection/delivery should start unset")
	}
	if p.Delivered() {
		t.Error("new packet reports delivered")
	}
	if p.Mode != Adaptive {
		t.Errorf("mode = %v, want adaptive", p.Mode)
	}
	if p.LastProgress != 42 {
		t.Errorf("LastProgress = %d, want creation cycle", p.LastProgress)
	}
	if p.SrcRemaining != 16 {
		t.Errorf("SrcRemaining = %d, want full length", p.SrcRemaining)
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 0, 1, 0, 0)
}

func TestModeStrings(t *testing.T) {
	for m, s := range map[Mode]string{Adaptive: "adaptive", Escape: "escape", Recovering: "recovering"} {
		if m.String() != s {
			t.Errorf("%v.String() = %q", m, m.String())
		}
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestLatencies(t *testing.T) {
	p := New(1, 0, 1, 16, 100)
	if p.NetworkLatency() != -1 || p.TotalLatency() != -1 {
		t.Error("latencies should be -1 before delivery")
	}
	p.InjectedAt = 150
	p.DeliveredAt = 250
	if got := p.NetworkLatency(); got != 100 {
		t.Errorf("NetworkLatency = %d, want 100", got)
	}
	if got := p.TotalLatency(); got != 150 {
		t.Errorf("TotalLatency = %d, want 150", got)
	}
}

func TestNetworkLatencyNeedsInjection(t *testing.T) {
	p := New(1, 0, 1, 16, 0)
	p.DeliveredAt = 10 // pathological: delivered without injection stamp
	if p.NetworkLatency() != -1 {
		t.Error("network latency without injection should be -1")
	}
}

func TestProgressAndBlockedFor(t *testing.T) {
	p := New(1, 0, 1, 16, 0)
	p.Progress(10)
	if got := p.BlockedFor(25); got != 15 {
		t.Errorf("BlockedFor = %d, want 15", got)
	}
}

func TestStringFormat(t *testing.T) {
	p := New(3, 1, 2, 16, 0)
	if got := p.String(); got != "pkt 3 1->2 len 16 adaptive" {
		t.Errorf("String() = %q", got)
	}
}
