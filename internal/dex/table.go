package dex

import (
	"math/bits"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// table is an adapter's per-run node table, 8 bytes per node: each node's
// packed coordinate, from which the adapter derives outlinks and profitable
// sets with comparisons instead of the topology's divisions, and a memo of
// the node's outqueue decision in the current step.
type table struct {
	net   *sim.Network
	w, h  int32
	torus bool
	// ybits is the width of the y field of a packed coordinate, and ymask
	// selects it: a node at (x, y) packs as x<<ybits | y. The engine's
	// int32 node IDs bound w·h by 2^31, so both fields always fit.
	ybits uint
	ymask uint32
	xy    []uint32
	// memo[id] is stamp(step) | the DirSet node id's Schedule returned in
	// that step.
	memo []uint32
}

// memoSet selects the DirSet bits of a memo entry.
const memoSet = 1<<grid.NumDirs - 1

// stamp is the memo stamp of a step: the step modulo 2^28, above the
// DirSet bits.
func stamp(step int) uint32 { return uint32(step) << grid.NumDirs }

// build fills the table for net, reusing its slices when they are large
// enough, and clears the memo.
func (t *table) build(net *sim.Network) {
	if t.net == net {
		return
	}
	topo := net.Topo
	n := topo.N()
	t.net = net
	t.w, t.h = int32(topo.Width()), int32(topo.Height())
	t.torus = topo.Wraparound()
	t.ybits = uint(bits.Len32(uint32(t.h - 1)))
	t.ymask = 1<<t.ybits - 1
	if cap(t.xy) < n {
		t.xy = make([]uint32, n)
		t.memo = make([]uint32, n)
	}
	t.xy, t.memo = t.xy[:n], t.memo[:n]
	for id := range t.xy {
		c := topo.CoordOf(grid.NodeID(id))
		t.xy[id] = uint32(c.X)<<t.ybits | uint32(c.Y)
	}
	clear(t.memo)
}

// coord unpacks a packed coordinate.
func (t *table) coord(xy uint32) grid.Coord {
	return grid.Coord{X: int(xy >> t.ybits), Y: int(xy & t.ymask)}
}

// outlinks returns the outlinks that exist at the node with packed
// coordinate xy: all four on the torus, the in-bounds ones on the mesh.
func (t *table) outlinks(xy uint32) grid.DirSet {
	if t.torus {
		return grid.AllDirs
	}
	x, y := int32(xy>>t.ybits), int32(xy&t.ymask)
	var s grid.DirSet
	if y < t.h-1 {
		s = s.Set(grid.North)
	}
	if x < t.w-1 {
		s = s.Set(grid.East)
	}
	if y > 0 {
		s = s.Set(grid.South)
	}
	if x > 0 {
		s = s.Set(grid.West)
	}
	return s
}

// profitable returns the outlinks of the node with packed coordinate from
// that move a packet closer to dst, as grid.Topology.Profitable does.
func (t *table) profitable(from uint32, dst grid.NodeID) grid.DirSet {
	to := t.xy[dst]
	fx, fy := int32(from>>t.ybits), int32(from&t.ymask)
	tx, ty := int32(to>>t.ybits), int32(to&t.ymask)
	if t.torus {
		return wrapAxis(tx-fx, t.w, grid.East, grid.West) | wrapAxis(ty-fy, t.h, grid.North, grid.South)
	}
	var s grid.DirSet
	if tx > fx {
		s = s.Set(grid.East)
	} else if tx < fx {
		s = s.Set(grid.West)
	}
	if ty > fy {
		s = s.Set(grid.North)
	} else if ty < fy {
		s = s.Set(grid.South)
	}
	return s
}

// wrapAxis returns the profitable directions along one torus dimension of
// the given size for a coordinate difference delta in (-size, size): fwd
// is the direction of increasing coordinate. When both ways around tie,
// both directions are profitable.
func wrapAxis(delta, size int32, fwd, bwd grid.Dir) grid.DirSet {
	var s grid.DirSet
	if delta == 0 {
		return s
	}
	if delta < 0 {
		delta += size // hops going fwd, in [1, size)
	}
	back := size - delta
	if delta <= back {
		s = s.Set(fwd)
	}
	if back <= delta {
		s = s.Set(bwd)
	}
	return s
}
