package packet

import "testing"

// FuzzLatencyAccounting checks the lifecycle timestamps: latencies are
// -1 until the relevant events happen, then exact cycle differences.
func FuzzLatencyAccounting(f *testing.F) {
	f.Add(int64(0), uint16(3), uint16(5))
	f.Add(int64(1000), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, created int64, injectDelay, deliverDelay uint16) {
		if created < 0 {
			created = -created
		}
		p := New(7, 2, 3, 4, created)
		if p.Delivered() {
			t.Fatal("fresh packet reports delivered")
		}
		if p.NetworkLatency() != -1 || p.TotalLatency() != -1 {
			t.Fatalf("undelivered packet has latencies %d/%d, want -1/-1", p.NetworkLatency(), p.TotalLatency())
		}
		p.InjectedAt = created + int64(injectDelay)
		if p.NetworkLatency() != -1 {
			t.Fatal("injected-only packet has a network latency")
		}
		p.DeliveredAt = p.InjectedAt + int64(deliverDelay)
		if !p.Delivered() {
			t.Fatal("delivered packet not reported delivered")
		}
		if got := p.NetworkLatency(); got != int64(deliverDelay) {
			t.Fatalf("network latency %d, want %d", got, deliverDelay)
		}
		if got := p.TotalLatency(); got != int64(injectDelay)+int64(deliverDelay) {
			t.Fatalf("total latency %d, want %d", got, int64(injectDelay)+int64(deliverDelay))
		}
		if p.BlockedFor(p.DeliveredAt) != p.DeliveredAt-created {
			t.Fatalf("BlockedFor accounting broken: %d", p.BlockedFor(p.DeliveredAt))
		}
	})
}
