package topology

import "testing"

// clampTorus maps arbitrary fuzz bytes onto a valid torus and a pair of
// node IDs on it, keeping the network small enough that property checks
// stay cheap.
func clampTorus(t *testing.T, k, n uint8, src, dst uint16) (*Torus, NodeID, NodeID) {
	t.Helper()
	topo := MustNew(2+int(k%7), 1+int(n%4)) // k in [2,8], n in [1,4]
	return topo, NodeID(int(src) % topo.Nodes()), NodeID(int(dst) % topo.Nodes())
}

// FuzzDORMeshRoute checks the dimension-order mesh route used by the
// escape and recovery lanes: it must terminate within the mesh diameter,
// take only mesh steps (one coordinate changes by exactly one, no
// wrap-around), be minimal on the mesh, correct dimensions in increasing
// order, and end at the destination.
func FuzzDORMeshRoute(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint16(0), uint16(255))
	f.Add(uint8(2), uint8(1), uint16(1), uint16(1))
	f.Add(uint8(3), uint8(4), uint16(77), uint16(12))
	f.Fuzz(func(t *testing.T, k, n uint8, srcRaw, dstRaw uint16) {
		topo, src, dst := clampTorus(t, k, n, srcRaw, dstRaw)

		// Step manually so a routing cycle is caught as a bound
		// violation, not a hang.
		diameter := topo.N() * (topo.K() - 1)
		cur := src
		hops, inDim := 0, 0
		for {
			port, ok := topo.DORMeshNextPort(cur, dst)
			if !ok {
				if cur != dst {
					t.Fatalf("route stopped at %d before reaching %d", cur, dst)
				}
				break
			}
			if cur == dst {
				t.Fatalf("DORMeshNextPort(%d, %d) wants to keep routing at the destination", cur, dst)
			}
			d, dir := PortDim(port), PortDir(port)
			next := topo.Neighbor(cur, d, dir)
			// Mesh step: the coordinate moves by exactly one toward the
			// destination, without wrapping.
			cc, nc, dc := topo.Coord(cur, d), topo.Coord(next, d), topo.Coord(dst, d)
			if nc-cc != int(dir) {
				t.Fatalf("step %d->%d wraps around dimension %d (coord %d->%d dir %v)", cur, next, d, cc, nc, dir)
			}
			for od := 0; od < topo.N(); od++ {
				if od != d && topo.Coord(next, od) != topo.Coord(cur, od) {
					t.Fatalf("step %d->%d moves dimension %d and %d at once", cur, next, d, od)
				}
			}
			if abs(dc-nc) != abs(dc-cc)-1 {
				t.Fatalf("step %d->%d is not minimal toward coord %d in dimension %d", cur, next, dc, d)
			}
			// Dimension order: once a dimension starts changing, every
			// lower one must be done.
			if d < inDim {
				t.Fatalf("route %d->%d went back to dimension %d after %d", src, dst, d, inDim)
			}
			inDim = d
			cur = next
			hops++
			if hops > diameter {
				t.Fatalf("route from %d to %d exceeded mesh diameter %d", src, dst, diameter)
			}
		}
		if hops != topo.MeshDistance(src, dst) {
			t.Fatalf("route took %d hops, mesh distance is %d", hops, topo.MeshDistance(src, dst))
		}
	})
}

// FuzzMinimalPorts checks the adaptive routing candidate set: it is
// empty exactly at the destination, and every candidate port leads one
// hop closer on the torus.
func FuzzMinimalPorts(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint16(4), uint16(200))
	f.Add(uint8(4), uint8(3), uint16(0), uint16(63))
	f.Add(uint8(2), uint8(4), uint16(9), uint16(6))
	f.Fuzz(func(t *testing.T, k, n uint8, srcRaw, dstRaw uint16) {
		topo, src, dst := clampTorus(t, k, n, srcRaw, dstRaw)
		ports := topo.MinimalPorts(src, dst, nil)
		if (len(ports) == 0) != (src == dst) {
			t.Fatalf("MinimalPorts(%d, %d) = %v; empty iff src == dst", src, dst, ports)
		}
		base := topo.Distance(src, dst)
		for _, p := range ports {
			next := topo.Neighbor(src, PortDim(p), PortDir(p))
			if d := topo.Distance(next, dst); d != base-1 {
				t.Fatalf("port %d from %d to %d: distance %d -> %d, want %d", p, src, dst, base, d, base-1)
			}
		}
		// Coordinate round-trip on the same fuzzed inputs.
		if got := topo.ID(coordsOf(topo, src)); got != src {
			t.Fatalf("ID(coords of %d) = %d", src, got)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
