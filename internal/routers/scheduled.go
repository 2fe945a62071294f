package routers

import (
	"meshroute/internal/analysis"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// Scheduled is the offline path-scheduled baseline in the style of
// Rothvoß's simpler O(congestion + dilation) proof: before step 1 it
// computes a minimal path system for the whole instance (the canonical
// dimension-order system of internal/analysis), assigns every packet an
// initial random delay in [0, C) from a seeded hash of its ID, and then
// replays the schedule deterministically — each packet waits out its
// delay at its source and afterwards follows its precomputed path, with
// contention resolved by frame priority (smaller delay first, packet ID
// as the tiebreak). With delays spreading each edge's C packets over C
// start frames, the replay finishes in O(C+D) steps, which makes it the
// theory-grounded reference competitor for every online-capable router
// in the registry.
//
// The replayed system is the canonical one, not the greedy-improved
// system Analyze returns: canonical paths are phased (all horizontal
// hops before all vertical ones), which together with the reserved-slot
// admission rule shared with the dimension-order routers keeps the
// bounded-queue replay free of queue-dependency deadlock. Unphased
// minimal paths can form four-node full-queue cycles that no pairwise
// swap resolves (reversal on a 16×16 mesh at k=2 does exactly that).
//
// Scheduled inspects full destinations and global state, so it is NOT
// destination-exchangeable, and it is offline: it must see the whole
// instance up front, so it only accepts workloads that place every
// packet before step 1 (the scenario layer rejects dynamic workloads for
// it). A packet that somehow materializes later is routed canonically
// with zero delay, so the algorithm stays total.
type Scheduled struct {
	// Seed selects the delay stream; runs are deterministic per seed.
	Seed uint64

	state *scheduledState
}

// scheduledState is the precomputed schedule, built once at InitNode
// time and immutable afterwards.
type scheduledState struct {
	built   bool
	ps      *analysis.PathSystem
	release []int32 // per PacketID: first step the packet may move is release+1
}

// NewScheduled returns a Scheduled router with the given delay seed.
func NewScheduled(seed uint64) *Scheduled {
	return &Scheduled{Seed: seed, state: &scheduledState{}}
}

// Name implements sim.Algorithm.
func (r *Scheduled) Name() string { return "scheduled" }

// InitNode implements sim.Algorithm: the first call (the engine runs
// InitNode serially, before step 1, on the original algorithm) builds
// the path system over every packet in the store and draws the delays.
func (r *Scheduled) InitNode(net *sim.Network, n *sim.Node) {
	st := r.state
	if st.built {
		return
	}
	st.built = true
	ps := &net.P
	demands := make([]analysis.Demand, ps.Len())
	for i := range demands {
		p := sim.PacketID(i + 1)
		demands[i] = analysis.Demand{Src: ps.Src[p], Dst: ps.Dst[p]}
	}
	st.ps = analysis.AnalyzeCanonical(net.Topo, demands)
	c := st.ps.Result().Congestion
	st.release = make([]int32, len(demands)+1)
	if c > 1 {
		for i := 1; i < len(st.release); i++ {
			st.release[i] = int32(splitmix64(r.Seed^uint64(i)) % uint64(c))
		}
	}
}

// Update implements sim.Algorithm.
func (r *Scheduled) Update(net *sim.Network, n *sim.Node) {}

// nextDir returns packet p's next hop along its precomputed path. A
// minimal-path packet's position on its path is exactly its hop count,
// so the router needs no mutable per-packet state. ok is false for a
// packet past its path's end or outside the precomputed instance.
func (st *scheduledState) nextDir(net *sim.Network, p sim.PacketID) (grid.Dir, int32, bool) {
	i := int(p) - 1
	if st.ps == nil || i >= st.ps.Len() {
		// Late arrival (dynamic injection the scenario layer should have
		// rejected): canonical dimension-order, no delay.
		prof := net.Topo.Profitable(net.P.At[p], net.P.Dst[p])
		for _, d := range [...]grid.Dir{grid.East, grid.West, grid.North, grid.South} {
			if prof.Has(d) {
				return d, 0, true
			}
		}
		return grid.NoDir, 0, false
	}
	path := st.ps.Path(i)
	hops := int(net.P.Hops[p])
	if hops >= len(path) {
		return grid.NoDir, 0, false
	}
	return path[hops], st.release[p], true
}

// Schedule implements the outqueue policy: for each outlink, among the
// resident packets whose path continues on it and whose delay has
// elapsed, send the one in the earliest frame (smallest delay, packet ID
// tiebreak).
func (r *Scheduled) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	var best [grid.NumDirs]uint64
	st := r.state
	t := net.Step()
	for i, p := range net.PacketsOf(n) {
		dir, rel, ok := st.nextDir(net, p)
		if !ok || t <= int(rel) {
			continue
		}
		key := uint64(rel)<<32 | uint64(p)
		if sched[dir] < 0 || key < best[dir] {
			sched[dir], best[dir] = i, key
		}
	}
	return sched
}

// Accept implements the inqueue policy: the swap rule shared with the
// other central-queue routers (an offer from a neighbor we scheduled a
// packet toward is accepted unconditionally — by symmetry that neighbor
// accepts ours, so occupancy is unchanged), then admission in frame
// priority order. Like the dimension-order routers, the last queue slot
// is reserved for vertically traveling packets: column-phase traffic is
// monotone per column (head-on pairs resolve by swap), so it always
// drains, and row-phase packets blocked on the reserved slot eventually
// find room — the discipline that keeps phased paths deadlock-free at
// bounded k.
func (r *Scheduled) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	occ := n.QueueLen(0)
	st := r.state
	sched := r.Schedule(net, n)
	for i, o := range offers {
		if sched[o.Travel.Opposite()] >= 0 {
			acc[i] = true
		}
	}
	for {
		bi, bk := -1, uint64(0)
		for i, o := range offers {
			if acc[i] {
				continue
			}
			if o.Travel.Horizontal() {
				if occ >= net.K-1 {
					continue
				}
			} else if occ >= net.K {
				continue
			}
			rel := int32(0)
			if int(o.P) < len(st.release) {
				rel = st.release[o.P]
			}
			if k := uint64(rel)<<32 | uint64(o.P); bi < 0 || k < bk {
				bi, bk = i, k
			}
		}
		if bi < 0 {
			break
		}
		acc[bi] = true
		occ++
	}
}

// Result returns the congestion/dilation of the precomputed path system
// (zero before the first step has initialized the schedule).
func (r *Scheduled) Result() analysis.Result {
	if r.state.ps == nil {
		return analysis.Result{}
	}
	return r.state.ps.Result()
}
