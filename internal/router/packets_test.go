package router

import (
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestLaneLayout pins the per-lane structs' sizes, and that the flit and
// buffer arenas hold no pointer, so the collector never scans them. A
// revived packet pointer in the flit or a back-pointer to the fabric in
// the buffer fails here before it shows in the bytes per lane.
func TestLaneLayout(t *testing.T) {
	if got := unsafe.Sizeof(flit{}); got != 8 {
		t.Errorf("flit is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(vcBuffer{}); got > 40 {
		t.Errorf("vcBuffer is %d bytes, want <= 40", got)
	}
	if got := unsafe.Sizeof(outVC{}); got > 32 {
		t.Errorf("outVC is %d bytes, want <= 32", got)
	}
	for _, v := range []any{flit{}, vcBuffer{}} {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ); path != "" {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// pointerPath returns the path to the first pointer-carrying part of
// typ, or "" when typ holds no pointer.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return typ.String()
	case reflect.Array:
		if p := pointerPath(typ.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + " " + p
			}
		}
	}
	return ""
}

// TestConfigValidateSlotBound walks a 4-ary 2-cube's buffer depth across
// the packet table's int32 bound and then the flit arena's: every packet
// in flight holds a buffered flit, a latch, a source or the recovery
// drain, so that sum must fit the slot index.
func TestConfigValidateSlotBound(t *testing.T) {
	c := testConfig(4, Avoidance)
	nodes, ports := c.Topo.Nodes(), c.Topo.PhysPorts()
	lanes := nodes * (ports*c.VCs + 1)
	extra := nodes*(ports*c.VCs+1+1) + 1 // latches and sources, plus the drain
	fits := (math.MaxInt32 - extra) / lanes
	if fits+1 > math.MaxInt32/lanes {
		t.Fatalf("depth %d past the slot bound is past the arena bound too", fits+1)
	}
	for _, tc := range []struct {
		depth int
		want  string // error substring; "" validates
	}{
		{fits, ""},
		{fits + 1, "packet table"},
		{math.MaxInt32/lanes + 1, "flit arena"},
	} {
		c.BufDepth = tc.depth
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("depth %d: %v", tc.depth, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("depth %d: Validate = %v, want an error naming the %s", tc.depth, err, tc.want)
		}
	}
}

// TestCheckInvariantsPacketTable plants each fault the table walk
// exists for and checks CheckInvariants names it.
func TestCheckInvariantsPacketTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fault breaks a fabric whose only packet, p from node 5, has
		// put its header into node 5's injection channel.
		fault func(f *Fabric, p *packet.Packet, pool *packet.Pool)
		want  *regexp.Regexp
	}{
		{"flit of a released slot", func(f *Fabric, p *packet.Packet, _ *packet.Pool) {
			f.slots.release(slotOf(f, p))
		}, regexp.MustCompile(`^vcbuf\(node 5 port 4 vc 0\) holds a flit of free slot 1 at 0$`)},
		{"recycled packet in the table", func(_ *Fabric, p *packet.Packet, pool *packet.Pool) {
			pool.Put(p)
		}, regexp.MustCompile(`use-after-recycle`)},
		{"slot nothing names", func(f *Fabric, _ *packet.Packet, _ *packet.Pool) {
			f.slots.take(packet.New(9, 0, 1, 4, 0))
		}, regexp.MustCompile(`at slot 2, but no flit, latch, source or recovery drain names it`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := MustNew(testConfig(8, Recovery))
			pool := packet.NewPool()
			p := pool.Get(1, 5, 40, 8, 0)
			f.StartInjection(p)
			f.Step()
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("healthy fabric failed invariants: %v", err)
			}
			tc.fault(f, p, pool)
			err := f.CheckInvariants()
			if err == nil || !tc.want.MatchString(err.Error()) {
				t.Fatalf("CheckInvariants = %v, want a match of %q", err, tc.want)
			}
		})
	}
}

// TestEachPacketOncePerPacket saturates a recovery-mode fabric, stops
// injecting, and checks at every cycle of the drain that EachPacket
// passes InFlight() distinct packets, the draining one included.
func TestEachPacketOncePerPacket(t *testing.T) {
	f := MustNew(testConfig(8, Recovery))
	rng := rand.New(rand.NewSource(3))
	var id packet.ID
	for i := 0; i < 1500; i++ {
		for n := 0; n < f.topo.Nodes(); n++ {
			if rng.Float64() < 0.1 && f.CanStartInjection(topology.NodeID(n)) {
				dst := topology.NodeID(rng.Intn(f.topo.Nodes()))
				if dst != topology.NodeID(n) {
					f.StartInjection(packet.New(id, topology.NodeID(n), dst, 16, f.Now()))
					id++
				}
			}
		}
		f.Step()
	}
	midDrain := 0
	for f.InFlight() > 0 && f.Now() < 100_000 {
		seen := map[*packet.Packet]int{}
		f.EachPacket(func(p *packet.Packet) { seen[p]++ })
		for p, n := range seen {
			if n != 1 {
				t.Fatalf("cycle %d: EachPacket passed %v %d times", f.Now(), p, n)
			}
		}
		if len(seen) != f.InFlight() {
			t.Fatalf("cycle %d: EachPacket passed %d packets, %d in flight", f.Now(), len(seen), f.InFlight())
		}
		if f.rec != nil {
			if seen[f.rec.pkt] != 1 {
				t.Fatalf("cycle %d: EachPacket missed the draining %v", f.Now(), f.rec.pkt)
			}
			midDrain++
		}
		f.Step()
	}
	if f.InFlight() != 0 {
		t.Fatalf("%d packets stuck", f.InFlight())
	}
	if midDrain == 0 {
		t.Fatal("no recovery drained while the network emptied")
	}
	t.Logf("%d packets, %d cycles mid-drain", id, midDrain)
}
