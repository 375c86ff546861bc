package sideband

import (
	"testing"
)

type fakeSource struct {
	full      int
	delivered int
}

func (f *fakeSource) FullVCBuffers() int { return f.full }
func (f *fakeSource) TakeDeliveredFlits() int {
	d := f.delivered
	f.delivered = 0
	return d
}

type captureSink struct{ snaps []Snapshot }

func (c *captureSink) OnSnapshot(s Snapshot) { c.snaps = append(c.snaps, s) }

func paperCfg() Config { return Config{K: 16, N: 2, HopDelay: 2} }

func TestGatherDurationPaperValue(t *testing.T) {
	// Paper: (k/2)*h*n = 8*2*2 = 32 cycles for the 16-ary 2-cube.
	if g := paperCfg().GatherDuration(); g != 32 {
		t.Fatalf("g = %d, want 32", g)
	}
}

func TestGatherDurationOtherShapes(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int64
	}{
		{Config{K: 8, N: 2, HopDelay: 2}, 16},
		{Config{K: 16, N: 3, HopDelay: 2}, 48},
		{Config{K: 4, N: 2, HopDelay: 1}, 4},
	}
	for _, c := range cases {
		if got := c.cfg.GatherDuration(); got != c.want {
			t.Errorf("%+v: g = %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 1, N: 2, HopDelay: 2},
		{K: 16, N: 0, HopDelay: 2},
		{K: 16, N: 2, HopDelay: 0},
		{K: 16, N: 2, HopDelay: 2, Bits: -1},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%+v validated", c)
		}
	}
	if err := paperCfg().Validate(); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}, &fakeSource{})
}

func TestSnapshotDelayedByG(t *testing.T) {
	src := &fakeSource{full: 7, delivered: 100}
	nw := New(paperCfg(), src)
	sink := &captureSink{}
	nw.Subscribe(sink)

	for now := int64(0); now < 32; now++ {
		nw.Tick(now)
		if len(sink.snaps) != 0 {
			t.Fatalf("snapshot visible at cycle %d, before g", now)
		}
	}
	nw.Tick(32)
	if len(sink.snaps) != 1 {
		t.Fatalf("snapshot count = %d at cycle g", len(sink.snaps))
	}
	s := sink.snaps[0]
	if s.Taken != 0 || s.Visible != 32 || s.FullBuffers != 7 || s.DeliveredFlits != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestSnapshotEveryG(t *testing.T) {
	src := &fakeSource{}
	nw := New(paperCfg(), src)
	sink := &captureSink{}
	nw.Subscribe(sink)
	for now := int64(0); now <= 320; now++ {
		src.full = int(now) // changes each cycle; sampled on boundaries
		src.delivered++
		nw.Tick(now)
	}
	// Snapshots taken at 0,32,...,288 are visible by 320 (the one taken
	// at 320 is not yet).
	if len(sink.snaps) != 10 {
		t.Fatalf("got %d snapshots, want 10", len(sink.snaps))
	}
	for i, s := range sink.snaps {
		if s.Taken != int64(i)*32 {
			t.Errorf("snapshot %d taken at %d", i, s.Taken)
		}
		if s.Visible != s.Taken+32 {
			t.Errorf("snapshot %d visible at %d", i, s.Visible)
		}
		if s.FullBuffers != int(s.Taken) {
			t.Errorf("snapshot %d full buffers %d, want %d (sampled on boundary)", i, s.FullBuffers, s.Taken)
		}
	}
}

func TestDeliveredFlitsWindowed(t *testing.T) {
	src := &fakeSource{}
	nw := New(paperCfg(), src)
	sink := &captureSink{}
	nw.Subscribe(sink)
	for now := int64(0); now <= 96; now++ {
		nw.Tick(now)
		src.delivered += 2 // 2 flits delivered per cycle, after the tick
	}
	// Snapshot at 0 sees 0; snapshot at 32 sees 64; at 64 sees 64.
	if len(sink.snaps) != 3 {
		t.Fatalf("snapshots = %d", len(sink.snaps))
	}
	if sink.snaps[0].DeliveredFlits != 0 {
		t.Errorf("first window = %d", sink.snaps[0].DeliveredFlits)
	}
	if sink.snaps[1].DeliveredFlits != 64 || sink.snaps[2].DeliveredFlits != 64 {
		t.Errorf("windows = %d, %d, want 64, 64", sink.snaps[1].DeliveredFlits, sink.snaps[2].DeliveredFlits)
	}
}

func TestNarrowSidebandQuantizes(t *testing.T) {
	src := &fakeSource{full: 0b1111111111} // 1023 needs 10 bits
	cfg := paperCfg()
	cfg.Bits = 8
	nw := New(cfg, src)
	sink := &captureSink{}
	nw.Subscribe(sink)
	for now := int64(0); now <= 32; now++ {
		nw.Tick(now)
	}
	got := sink.snaps[0].FullBuffers
	// 1023 >> 2 << 2 = 1020.
	if got != 1020 {
		t.Errorf("quantized = %d, want 1020", got)
	}
}

func TestNarrowSidebandSmallValuesExact(t *testing.T) {
	src := &fakeSource{full: 200, delivered: 100}
	cfg := paperCfg()
	cfg.Bits = 9
	nw := New(cfg, src)
	sink := &captureSink{}
	nw.Subscribe(sink)
	for now := int64(0); now <= 32; now++ {
		nw.Tick(now)
	}
	if sink.snaps[0].FullBuffers != 200 || sink.snaps[0].DeliveredFlits != 100 {
		t.Errorf("small values altered: %+v", sink.snaps[0])
	}
}
