package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		k, n int
		ok   bool
	}{
		{2, 1, true}, {16, 2, true}, {4, 3, true}, {8, 4, true},
		{1, 2, false}, {0, 2, false}, {-3, 2, false},
		{4, 0, false}, {4, -1, false},
	}
	for _, c := range cases {
		_, err := New(c.k, c.n)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d): err=%v, want ok=%v", c.k, c.n, err, c.ok)
		}
	}
}

func TestNewRejectsHuge(t *testing.T) {
	if _, err := New(1<<20, 4); err == nil {
		t.Fatal("expected size overflow error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,0) did not panic")
		}
	}()
	MustNew(0, 0)
}

func TestNodesAndPorts(t *testing.T) {
	tor := MustNew(16, 2)
	if tor.Nodes() != 256 {
		t.Errorf("Nodes = %d, want 256", tor.Nodes())
	}
	if tor.PhysPorts() != 4 {
		t.Errorf("PhysPorts = %d, want 4", tor.PhysPorts())
	}
	if tor.K() != 16 || tor.N() != 2 {
		t.Errorf("K,N = %d,%d want 16,2", tor.K(), tor.N())
	}
	if got := tor.TotalVCBuffers(3); got != 3072 {
		t.Errorf("TotalVCBuffers(3) = %d, want 3072 (paper's buffer count)", got)
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{2, 1}, {4, 2}, {16, 2}, {3, 3}, {4, 4}} {
		tor := MustNew(dims[0], dims[1])
		var buf []int
		for id := 0; id < tor.Nodes(); id++ {
			buf = tor.Coords(NodeID(id), buf)
			if got := tor.ID(buf); got != NodeID(id) {
				t.Fatalf("%v: ID(Coords(%d)) = %d", tor, id, got)
			}
		}
	}
}

func TestCoordSingle(t *testing.T) {
	tor := MustNew(16, 2)
	// node 0x5A = 90 = 10 + 5*16 -> x=10, y=5
	if x := tor.Coord(90, 0); x != 10 {
		t.Errorf("Coord(90,0) = %d, want 10", x)
	}
	if y := tor.Coord(90, 1); y != 5 {
		t.Errorf("Coord(90,1) = %d, want 5", y)
	}
}

func TestIDNormalizesCoords(t *testing.T) {
	tor := MustNew(8, 2)
	if got, want := tor.ID([]int{-1, 9}), tor.ID([]int{7, 1}); got != want {
		t.Errorf("ID with unnormalized coords = %d, want %d", got, want)
	}
}

func TestNeighborWraps(t *testing.T) {
	tor := MustNew(4, 2)
	// (0,0) minus in dim 0 -> (3,0)
	if got := tor.Neighbor(0, 0, Minus); got != 3 {
		t.Errorf("Neighbor(0,0,-) = %d, want 3", got)
	}
	// (3,3)=15 plus in dim 1 -> (3,0)=3
	if got := tor.Neighbor(15, 1, Plus); got != 3 {
		t.Errorf("Neighbor(15,1,+) = %d, want 3", got)
	}
}

func TestNeighborInverse(t *testing.T) {
	tor := MustNew(5, 3)
	for id := 0; id < tor.Nodes(); id++ {
		for d := 0; d < tor.N(); d++ {
			for _, dir := range []Dir{Plus, Minus} {
				nb := tor.Neighbor(NodeID(id), d, dir)
				back := tor.Neighbor(nb, d, -dir)
				if back != NodeID(id) {
					t.Fatalf("Neighbor not invertible: %d -%s%d-> %d -> %d", id, dir, d, nb, back)
				}
			}
		}
	}
}

func TestPortNumbering(t *testing.T) {
	if Port(0, Plus) != 0 || Port(0, Minus) != 1 || Port(1, Plus) != 2 || Port(1, Minus) != 3 {
		t.Fatal("unexpected port numbering")
	}
	for p := 0; p < 8; p++ {
		if Port(PortDim(p), PortDir(p)) != p {
			t.Errorf("port %d does not round-trip", p)
		}
		if OppositePort(OppositePort(p)) != p {
			t.Errorf("OppositePort not involutive for %d", p)
		}
		if PortDim(OppositePort(p)) != PortDim(p) {
			t.Errorf("OppositePort changes dimension for %d", p)
		}
		if PortDir(OppositePort(p)) == PortDir(p) {
			t.Errorf("OppositePort keeps direction for %d", p)
		}
	}
}

func TestOppositePortDelivers(t *testing.T) {
	tor := MustNew(6, 2)
	// A flit leaving node a via port p arrives at the neighbor's
	// OppositePort(p) input; sending back through that port returns home.
	for a := 0; a < tor.Nodes(); a++ {
		for p := 0; p < tor.PhysPorts(); p++ {
			b := tor.Neighbor(NodeID(a), PortDim(p), PortDir(p))
			q := OppositePort(p)
			if tor.Neighbor(b, PortDim(q), PortDir(q)) != NodeID(a) {
				t.Fatalf("opposite port of %d from node %d wrong", p, a)
			}
		}
	}
}

func TestDistanceKnownValues(t *testing.T) {
	tor := MustNew(16, 2)
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{0, 0}, []int{0, 0}, 0},
		{[]int{0, 0}, []int{1, 0}, 1},
		{[]int{0, 0}, []int{15, 0}, 1}, // wrap
		{[]int{0, 0}, []int{8, 0}, 8},  // half-way: either direction
		{[]int{0, 0}, []int{8, 8}, 16}, // network diameter
		{[]int{2, 3}, []int{14, 1}, 6}, // 4 (wrap) + 2
		{[]int{5, 5}, []int{10, 12}, 5 + 7},
	}
	for _, c := range cases {
		got := tor.Distance(tor.ID(c.a), tor.ID(c.b))
		if got != c.want {
			t.Errorf("Distance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	tor := MustNew(7, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := NodeID(rng.Intn(tor.Nodes()))
		b := NodeID(rng.Intn(tor.Nodes()))
		if tor.Distance(a, b) != tor.Distance(b, a) {
			t.Fatalf("Distance not symmetric for %d,%d", a, b)
		}
	}
}

func TestMeshDistanceAtLeastTorus(t *testing.T) {
	tor := MustNew(9, 2)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a := NodeID(rng.Intn(tor.Nodes()))
		b := NodeID(rng.Intn(tor.Nodes()))
		if tor.MeshDistance(a, b) < tor.Distance(a, b) {
			t.Fatalf("mesh distance shorter than torus distance for %d,%d", a, b)
		}
	}
}

// Property: repeatedly following any minimal port reaches the destination
// in exactly Distance(src,dst) hops, regardless of which minimal port is
// chosen at each step (full adaptivity stays minimal).
func TestMinimalPortsReachDestination(t *testing.T) {
	tor := MustNew(8, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		src := NodeID(rng.Intn(tor.Nodes()))
		dst := NodeID(rng.Intn(tor.Nodes()))
		cur := src
		steps := 0
		want := tor.Distance(src, dst)
		var ports []int
		for cur != dst {
			ports = tor.MinimalPorts(cur, dst, ports[:0])
			if len(ports) == 0 {
				t.Fatalf("no minimal ports from %d to %d but not there", cur, dst)
			}
			p := ports[rng.Intn(len(ports))]
			cur = tor.Neighbor(cur, PortDim(p), PortDir(p))
			steps++
			if steps > want {
				t.Fatalf("minimal walk from %d to %d exceeded %d steps", src, dst, want)
			}
		}
		if steps != want {
			t.Fatalf("walk took %d steps, Distance says %d", steps, want)
		}
	}
}

func TestMinimalPortsEmptyAtDestination(t *testing.T) {
	tor := MustNew(8, 2)
	if got := tor.MinimalPorts(5, 5, nil); len(got) != 0 {
		t.Errorf("MinimalPorts(x,x) = %v, want empty", got)
	}
}

func TestMinimalPortsTieGivesBothDirections(t *testing.T) {
	tor := MustNew(16, 2)
	a := tor.ID([]int{0, 0})
	b := tor.ID([]int{8, 0}) // offset exactly k/2
	ports := tor.MinimalPorts(a, b, nil)
	if len(ports) != 2 {
		t.Fatalf("tie case: got ports %v, want both dim-0 ports", ports)
	}
	seen := map[int]bool{ports[0]: true, ports[1]: true}
	if !seen[Port(0, Plus)] || !seen[Port(0, Minus)] {
		t.Fatalf("tie case ports = %v", ports)
	}
}

func TestMinimalPortsOddRadixNoTies(t *testing.T) {
	tor := MustNew(5, 2)
	for a := 0; a < tor.Nodes(); a++ {
		for b := 0; b < tor.Nodes(); b++ {
			ports := tor.MinimalPorts(NodeID(a), NodeID(b), nil)
			dims := map[int]int{}
			for _, p := range ports {
				dims[PortDim(p)]++
			}
			for d, c := range dims {
				if c > 1 {
					t.Fatalf("odd radix produced tie in dim %d for %d->%d", d, a, b)
				}
			}
		}
	}
}

func TestDORMeshPathReachesAndOrdersDimensions(t *testing.T) {
	tor := MustNew(8, 2)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		src := NodeID(rng.Intn(tor.Nodes()))
		dst := NodeID(rng.Intn(tor.Nodes()))
		// Walk the route one DORMeshNextPort step at a time; the bound
		// turns a non-terminating route into a length failure.
		var path []NodeID
		for cur := src; cur != dst && len(path) <= tor.Nodes(); {
			p, ok := tor.DORMeshNextPort(cur, dst)
			if !ok {
				break
			}
			cur = tor.Neighbor(cur, PortDim(p), PortDir(p))
			path = append(path, cur)
		}
		if want := tor.MeshDistance(src, dst); len(path) != want {
			t.Fatalf("DOR mesh path %d->%d length %d, want %d", src, dst, len(path), want)
		}
		if len(path) > 0 && path[len(path)-1] != dst {
			t.Fatalf("path does not end at destination")
		}
		// Dimension order: once dim 1 starts changing, dim 0 must be done.
		cur := src
		inDim := 0
		for _, next := range path {
			d := 0
			for ; d < tor.N(); d++ {
				if tor.Coord(cur, d) != tor.Coord(next, d) {
					break
				}
			}
			if d < inDim {
				t.Fatalf("path %d->%d went back to dimension %d after %d", src, dst, d, inDim)
			}
			inDim = d
			cur = next
		}
	}
}

func TestDORMeshNeverWraps(t *testing.T) {
	tor := MustNew(8, 2)
	for a := 0; a < tor.Nodes(); a++ {
		for _, b := range []NodeID{0, 7, 56, 63} {
			cur := NodeID(a)
			for cur != b {
				p, ok := tor.DORMeshNextPort(cur, b)
				if !ok {
					t.Fatalf("stuck at %d heading to %d", cur, b)
				}
				c := tor.Coord(cur, PortDim(p))
				// Moving Plus from k-1 or Minus from 0 would wrap.
				if (PortDir(p) == Plus && c == tor.K()-1) || (PortDir(p) == Minus && c == 0) {
					t.Fatalf("DOR mesh route wraps at node %d", cur)
				}
				cur = tor.Neighbor(cur, PortDim(p), PortDir(p))
			}
		}
	}
}

func TestDORMeshNextPortAtDestination(t *testing.T) {
	tor := MustNew(4, 2)
	if _, ok := tor.DORMeshNextPort(9, 9); ok {
		t.Error("DORMeshNextPort(x,x) should report local delivery")
	}
}

func TestCoordsQuick(t *testing.T) {
	tor := MustNew(11, 3)
	f := func(raw uint32) bool {
		id := NodeID(int(raw) % tor.Nodes())
		if id < 0 {
			id += NodeID(tor.Nodes())
		}
		c := tor.Coords(id, nil)
		for d := 0; d < tor.N(); d++ {
			if c[d] != tor.Coord(id, d) {
				return false
			}
			if c[d] < 0 || c[d] >= tor.K() {
				return false
			}
		}
		return tor.ID(c) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistanceQuickTriangle(t *testing.T) {
	tor := MustNew(6, 2)
	f := func(ra, rb, rc uint32) bool {
		a := NodeID(int(ra) % tor.Nodes())
		b := NodeID(int(rb) % tor.Nodes())
		c := NodeID(int(rc) % tor.Nodes())
		return tor.Distance(a, c) <= tor.Distance(a, b)+tor.Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	if got := MustNew(16, 2).String(); got != "16-ary 2-cube (256 nodes)" {
		t.Errorf("String() = %q", got)
	}
	if Plus.String() != "+" || Minus.String() != "-" {
		t.Error("Dir.String wrong")
	}
}
