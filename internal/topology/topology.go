// Package topology models k-ary n-cube (torus) interconnection networks:
// node coordinate math, port numbering, minimal-route direction sets for
// fully adaptive routing, and deadlock-free dimension-order paths over the
// mesh sub-network used by escape and recovery lanes.
package topology

import "fmt"

// NodeID identifies a node (router + processor + memory) in the network.
// IDs are dense in [0, Nodes()).
type NodeID int

// Dir is a direction along one dimension of the torus.
type Dir int

// Directions along a dimension. Plus moves toward higher coordinates
// (wrapping), Minus toward lower.
const (
	Plus  Dir = +1
	Minus Dir = -1
)

func (d Dir) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// Torus is a k-ary n-cube: n dimensions of radix k with wrap-around links.
// Every node has 2n physical channels (full duplex), one per direction per
// dimension. The zero value is not usable; construct with New.
type Torus struct {
	k     int
	n     int
	nodes int
	// strides[d] is the ID distance between nodes adjacent in dimension d.
	strides []int
}

// New returns a k-ary n-cube. k must be at least 2 and n at least 1.
func New(k, n int) (*Torus, error) {
	if k < 2 {
		return nil, fmt.Errorf("topology: radix k must be >= 2, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: dimension count n must be >= 1, got %d", n)
	}
	// Size the network before allocating anything per dimension: k >= 2
	// doubles nodes every dimension, so the check stops the loop within
	// 27 dimensions whatever n is.
	nodes := 1
	for d := 0; d < n; d++ {
		if nodes > 1<<26/k {
			return nil, fmt.Errorf("topology: %d-ary %d-cube is too large: k^n exceeds 2^26 nodes", k, n)
		}
		nodes *= k
	}
	strides := make([]int, n)
	strides[0] = 1
	for d := 1; d < n; d++ {
		strides[d] = strides[d-1] * k
	}
	return &Torus{k: k, n: n, nodes: nodes, strides: strides}, nil
}

// MustNew is New but panics on invalid parameters. Intended for tests and
// examples with constant arguments.
func MustNew(k, n int) *Torus {
	t, err := New(k, n)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the radix (nodes per dimension).
func (t *Torus) K() int { return t.k }

// N returns the number of dimensions.
func (t *Torus) N() int { return t.n }

// Nodes returns the total node count, k^n.
func (t *Torus) Nodes() int { return t.nodes }

// PhysPorts returns the number of physical channel ports per router (2n).
func (t *Torus) PhysPorts() int { return 2 * t.n }

// Coord returns node id's coordinate along dimension d.
//
//stcc:hotpath
func (t *Torus) Coord(id NodeID, d int) int {
	return (int(id) / t.strides[d]) % t.k
}

// ID returns the node with the given coordinates. Coordinates are taken
// modulo k, so callers may pass unnormalized values.
func (t *Torus) ID(coords []int) NodeID {
	id := 0
	for d := 0; d < t.n; d++ {
		c := coords[d] % t.k
		if c < 0 {
			c += t.k
		}
		id += c * t.strides[d]
	}
	return NodeID(id)
}

// Neighbor returns the node adjacent to id in dimension d, direction dir
// (with wrap-around).
//
//stcc:hotpath
func (t *Torus) Neighbor(id NodeID, d int, dir Dir) NodeID {
	c := t.Coord(id, d)
	nc := c + int(dir)
	switch {
	case nc < 0:
		nc += t.k
	case nc >= t.k:
		nc -= t.k
	}
	return id + NodeID((nc-c)*t.strides[d])
}

// Port numbers a router's physical channel for dimension d, direction dir.
// Ports are dense in [0, PhysPorts()): +d is 2d, -d is 2d+1.
//
//stcc:hotpath
func Port(d int, dir Dir) int {
	if dir == Plus {
		return 2 * d
	}
	return 2*d + 1
}

// PortDim returns the dimension a physical port index belongs to.
//
//stcc:hotpath
func PortDim(port int) int { return port / 2 }

// PortDir returns the direction a physical port index points.
//
//stcc:hotpath
func PortDir(port int) Dir {
	if port%2 == 0 {
		return Plus
	}
	return Minus
}

// OppositePort returns the port on the neighboring router that receives
// flits sent out of port p: the same dimension, reversed direction.
//
//stcc:hotpath
func OppositePort(p int) int { return p ^ 1 }

// torusOffset returns the signed shortest offset from a to b along a ring
// of size k, preferring the Plus direction on exact ties (offset k/2 for
// even k). ties reports whether both directions are minimal.
//
//stcc:hotpath
func (t *Torus) torusOffset(a, b int) (off int, ties bool) {
	d := b - a
	if d < 0 {
		d += t.k
	}
	// d in [0, k): distance going Plus.
	switch {
	case d == 0:
		return 0, false
	case 2*d < t.k:
		return d, false
	case 2*d > t.k:
		return d - t.k, false
	default: // 2*d == k: both directions equally short
		return d, true
	}
}

// Distance returns the minimal hop count between two nodes on the torus.
//
//stcc:hotpath
func (t *Torus) Distance(a, b NodeID) int {
	sum := 0
	for d := 0; d < t.n; d++ {
		off, _ := t.torusOffset(t.Coord(a, d), t.Coord(b, d))
		if off < 0 {
			off = -off
		}
		sum += off
	}
	return sum
}

// MeshDistance returns the hop count between two nodes when wrap-around
// links are forbidden (the mesh sub-network used by escape and recovery).
//
//stcc:hotpath
func (t *Torus) MeshDistance(a, b NodeID) int {
	sum := 0
	for d := 0; d < t.n; d++ {
		off := t.Coord(b, d) - t.Coord(a, d)
		if off < 0 {
			off = -off
		}
		sum += off
	}
	return sum
}

// MinimalPorts appends to dst the output ports that lie on some minimal
// torus path from cur to dst node, and returns the extended slice. The
// result is empty iff cur == dstNode. When the two directions of a
// dimension are equally short (offset exactly k/2), both ports are
// included, giving the router full adaptivity.
//
//stcc:hotpath
func (t *Torus) MinimalPorts(cur, dstNode NodeID, dst []int) []int {
	for d := 0; d < t.n; d++ {
		off, tie := t.torusOffset(t.Coord(cur, d), t.Coord(dstNode, d))
		switch {
		case off == 0:
			// aligned in this dimension
		case tie:
			dst = append(dst, Port(d, Plus), Port(d, Minus))
		case off > 0:
			dst = append(dst, Port(d, Plus))
		default:
			dst = append(dst, Port(d, Minus))
		}
	}
	return dst
}

// DORMeshNextPort returns the next output port on the dimension-order path
// from cur to dstNode over the mesh sub-network (no wrap-around links).
// Dimensions are corrected in increasing order; within a dimension the
// packet moves straight toward the destination coordinate. The second
// return value is false iff cur == dstNode (the packet should be delivered
// locally).
//
// Dimension-order routing on the mesh with a single virtual channel is
// deadlock free: the channel dependency graph is acyclic because
// dependencies only go from lower to higher dimensions, and within a
// dimension a packet never reverses.
//
//stcc:hotpath
func (t *Torus) DORMeshNextPort(cur, dstNode NodeID) (port int, ok bool) {
	for d := 0; d < t.n; d++ {
		cc, dc := t.Coord(cur, d), t.Coord(dstNode, d)
		if cc == dc {
			continue
		}
		if dc > cc {
			return Port(d, Plus), true
		}
		return Port(d, Minus), true
	}
	return 0, false
}

// TotalVCBuffers returns the number of virtual-channel edge buffers on
// physical channels network-wide for a network with vcs virtual channels
// per physical channel: Nodes * PhysPorts * vcs. This is the denominator
// of the paper's "fraction of full buffers" metric (3072 for the 16-ary
// 2-cube with 3 VCs).
func (t *Torus) TotalVCBuffers(vcs int) int {
	return t.nodes * t.PhysPorts() * vcs
}

func (t *Torus) String() string {
	return fmt.Sprintf("%d-ary %d-cube (%d nodes)", t.k, t.n, t.nodes)
}
