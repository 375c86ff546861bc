package packet

import "testing"

func TestPoolReusesInLIFOOrder(t *testing.T) {
	pl := NewPool()
	a := pl.Get(1, 0, 1, 4, 10)
	b := pl.Get(2, 0, 2, 4, 11)
	if a == b {
		t.Fatal("distinct Gets returned the same packet")
	}
	pl.Put(a)
	pl.Put(b)
	if pl.Free() != 2 {
		t.Fatalf("free list depth %d, want 2", pl.Free())
	}
	// LIFO: the most recently recycled packet comes back first, always
	// in the same order for the same call sequence.
	c := pl.Get(3, 1, 2, 4, 12)
	d := pl.Get(4, 2, 1, 4, 13)
	if c != b || d != a {
		t.Fatalf("reuse order not LIFO: got %p,%p want %p,%p", c, d, b, a)
	}
	if pl.Reuses() != 2 || pl.Gets() != 4 {
		t.Fatalf("reuses %d gets %d, want 2 and 4", pl.Reuses(), pl.Gets())
	}
}

func TestPoolResetMatchesNew(t *testing.T) {
	pl := NewPool()
	p := pl.Get(7, 3, 9, 5, 100)
	// Dirty every lifecycle field, as a trip through the network would.
	p.InjectedAt, p.DeliveredAt = 101, 150
	p.Mode = Recovering
	p.Hops = 4
	p.SrcRemaining = 0
	p.Consumed = 5
	p.Progress(149)
	p.Marked = true
	pl.Put(p)
	if !p.Recycled() {
		t.Fatal("Put did not mark the packet recycled")
	}

	q := pl.Get(8, 1, 2, 3, 200)
	if q != p {
		t.Fatal("expected the recycled packet back")
	}
	fresh := New(8, 1, 2, 3, 200)
	if q.Recycled() {
		t.Fatal("Get did not clear the recycled guard")
	}
	if q.ID != fresh.ID || q.Src != fresh.Src || q.Dst != fresh.Dst ||
		q.Length != fresh.Length || q.CreatedAt != fresh.CreatedAt ||
		q.InjectedAt != fresh.InjectedAt || q.DeliveredAt != fresh.DeliveredAt ||
		q.Mode != fresh.Mode || q.LastProgress != fresh.LastProgress ||
		q.Hops != fresh.Hops || q.SrcRemaining != fresh.SrcRemaining ||
		q.Consumed != fresh.Consumed || q.Marked != fresh.Marked {
		t.Fatalf("reset packet %+v differs from New %+v", q, fresh)
	}
}

func TestPoolDoubleRecycleDetected(t *testing.T) {
	pl := NewPool()
	p := pl.Get(1, 0, 1, 4, 0)
	pl.Put(p)
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("clean pool reported %v", err)
	}
	pl.Put(p)
	if pl.Free() != 1 {
		t.Fatalf("double Put changed the free list: depth %d, want 1", pl.Free())
	}
	if pl.DoubleRecycles() != 1 {
		t.Fatalf("double recycles %d, want 1", pl.DoubleRecycles())
	}
	if err := pl.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed the double recycle")
	}
}

func TestPoolGetRejectsBadLength(t *testing.T) {
	pl := NewPool()
	pl.Put(pl.Get(1, 0, 1, 4, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Get of a recycled packet accepted non-positive length")
		}
	}()
	pl.Get(2, 0, 1, 0, 0)
}
