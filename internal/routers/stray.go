package routers

import (
	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// StrayDimOrder is a destination-exchangeable router in the "Nonminimal
// extensions" class of Section 5: packets never move more than δ nodes
// beyond the rectangle spanned by their source and destination. It routes
// dimension order (horizontal first), and when a packet waiting to turn is
// blocked it may *overshoot* its turning column by up to δ columns in its
// original horizontal direction, sidestepping the congestion, then come
// back on (now profitable) links.
//
// The policy sees only profitable outlinks; the overshoot budget is kept in
// the packet state, updated from information the model allows (whether the
// packet moved, its profitable sets before and after) — so the router stays
// destination-exchangeable and falls under the Ω(n²/((δ+1)³k²)) bound.
type StrayDimOrder struct {
	// Delta is the stray budget δ >= 1.
	Delta int
}

// Name implements dex.Policy.
func (r StrayDimOrder) Name() string { return "stray-dimorder" }

// Packet state layout: bits 0..3 stray counter, bits 4..6 horizontal
// orientation (grid.Dir+1; 0 = unset).
const (
	strayCntMask  = 0xF
	strayDirShift = 4
	strayDirMask  = 0x7 << strayDirShift
)

func strayCount(s uint64) int { return int(s & strayCntMask) }

func strayOrient(s uint64) grid.Dir {
	v := (s & strayDirMask) >> strayDirShift
	if v == 0 {
		return grid.NoDir
	}
	return grid.Dir(v - 1)
}

func straySet(s uint64, cnt int, orient grid.Dir) uint64 {
	s &^= strayCntMask | strayDirMask
	s |= uint64(cnt) & strayCntMask
	if orient != grid.NoDir {
		s |= uint64(orient+1) << strayDirShift
	}
	return s
}

// InitNode records each origin packet's horizontal orientation (the
// horizontal profitable direction at its source; East for packets with
// none, so pure-vertical packets may still sidestep eastward).
func (r StrayDimOrder) InitNode(c *dex.NodeCtx) {
	for i := range c.Views {
		v := c.Views[i]
		orient := grid.East
		if v.Profitable.Has(grid.West) {
			orient = grid.West
		} else if v.Profitable.Has(grid.East) {
			orient = grid.East
		}
		c.SetPacketState(i, straySet(v.State, 0, orient))
	}
}

// want returns the packet's primary desired direction.
func (r StrayDimOrder) want(v dex.View) grid.Dir {
	return DimOrderWant(v.Profitable)
}

// strayWant returns the deflection direction if the packet has budget: its
// original horizontal orientation, taken only when that direction is no
// longer profitable (i.e. the move overshoots).
func (r StrayDimOrder) strayWant(c *dex.NodeCtx, v dex.View) grid.Dir {
	o := strayOrient(v.State)
	if o == grid.NoDir || v.Profitable.Has(o) || strayCount(v.State) >= r.Delta {
		return grid.NoDir
	}
	if !c.Outlinks.Has(o) {
		return grid.NoDir
	}
	return o
}

// Schedule fills each outlink with the first packet wanting it; packets
// whose primary want lost the contest may take their stray direction if
// the outlink is still free.
func (r StrayDimOrder) Schedule(c *dex.NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	// Primary wants, FIFO.
	for i := range c.Views {
		if w := r.want(c.Views[i]); w != grid.NoDir && sched[w] < 0 {
			sched[w] = i
		}
	}
	// Deflections on leftover outlinks, FIFO among losers.
	taken := map[int]bool{}
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if sched[d] >= 0 {
			taken[sched[d]] = true
		}
	}
	for i := range c.Views {
		if taken[i] {
			continue
		}
		if s := r.strayWant(c, c.Views[i]); s != grid.NoDir && sched[s] < 0 {
			sched[s] = i
			taken[i] = true
		}
	}
	return sched
}

// Accept is round-robin with the swap rule (central queue).
func (StrayDimOrder) Accept(c *dex.NodeCtx, offers []dex.OfferView, accept []bool) {
	acceptRoundRobin(c, offers, accept)
}

// Update maintains the stray counters: a move in the packet's orientation
// that was not profitable increments the counter (the packet is now past
// its destination column); a move against the orientation decrements it
// (coming back). Both are computable from the arrival direction and the
// current profitable set, information the model allows.
func (r StrayDimOrder) Update(c *dex.NodeCtx) {
	rotate(c)
	for i := range c.Views {
		v := c.Views[i]
		if v.ArrivedStep != c.Step || v.Arrived == grid.NoDir {
			continue
		}
		o := strayOrient(v.State)
		if o == grid.NoDir || !v.Arrived.Horizontal() {
			continue
		}
		cnt := strayCount(v.State)
		switch v.Arrived {
		case o:
			// Moving with the orientation: if the opposite is now
			// profitable, the move overshot the destination column.
			if v.Profitable.Has(o.Opposite()) {
				cnt++
			}
		case o.Opposite():
			// Coming back from an overshoot.
			if cnt > 0 {
				cnt--
			}
		}
		c.SetPacketState(i, straySet(v.State, cnt, o))
	}
}

var _ dex.Policy = StrayDimOrder{}
