package routers

import (
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// HotPotato is a simple deterministic deflection ("hot potato") router: at
// every step each node forwards ALL packets it holds, assigning each packet
// a profitable outlink when one is free and deflecting it on any free
// outlink otherwise. Older packets (earlier injection, then lower ID)
// choose first, which guarantees global progress: the oldest packet in the
// network always advances along a minimal path, so routing terminates.
//
// Hot potato routers take nonminimal paths. They are destination-
// exchangeable (the assignment uses only profitable outlinks and the ages
// carried in packet state), which is exactly why Theorem 14 needs the
// minimality assumption: the paper notes that the O(n^{3/2}) deflection
// algorithm of Bar-Noy et al. is destination-exchangeable, so the
// restriction to minimal paths cannot be dropped. HotPotato plays that
// role as a runnable baseline.
//
// Build the network with a central queue of capacity >= 4 and
// RequireMinimal disabled.
type HotPotato struct{}

// Name implements sim.Algorithm.
func (HotPotato) Name() string { return "hot-potato" }

// InitNode implements sim.Algorithm.
func (HotPotato) InitNode(net *sim.Network, n *sim.Node) {}

// Update implements sim.Algorithm.
func (HotPotato) Update(net *sim.Network, n *sim.Node) {}

// Schedule forwards every resident packet: oldest packets pick their best
// profitable free outlink first; leftovers are deflected to any free
// outlink.
func (HotPotato) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	st := &net.P
	q := net.PacketsOf(n)
	// Order packets oldest first (InjectStep, then ID; PacketIDs are
	// assigned in ID order, so comparing handles breaks ties identically).
	order := make([]int, len(q))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := q[order[j-1]], q[order[j]]
			if st.InjectStep[a] > st.InjectStep[b] || (st.InjectStep[a] == st.InjectStep[b] && a > b) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	taken := [grid.NumDirs]bool{}
	assigned := make([]bool, len(q))
	// First pass: profitable outlinks, oldest first.
	for _, i := range order {
		prof := net.Topo.Profitable(n.ID, st.Dst[q[i]])
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			if prof.Has(d) && !taken[d] {
				sched[d] = i
				taken[d] = true
				assigned[i] = true
				break
			}
		}
	}
	// Second pass: deflect leftovers on any free outlink.
	for _, i := range order {
		if assigned[i] {
			continue
		}
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			if taken[d] {
				continue
			}
			if _, ok := net.Topo.Neighbor(n.ID, d); ok {
				sched[d] = i
				taken[d] = true
				assigned[i] = true
				break
			}
		}
	}
	return sched
}

// Accept admits everything: deflection nodes always forward all packets
// next step, so the queue never exceeds the node degree.
func (HotPotato) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	for i := range acc {
		acc[i] = true
	}
}

// HotPotatoConfig returns a network configuration suitable for the
// deflection router: central queue with room for one packet per inlink and
// no minimality requirement.
func HotPotatoConfig(topo grid.Topology) sim.Config {
	return sim.Config{
		Topo:            topo,
		K:               grid.NumDirs,
		Queues:          sim.CentralQueue,
		RequireMinimal:  false,
		CheckInvariants: true,
	}
}
