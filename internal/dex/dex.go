// Package dex is the destination-exchangeable routing framework of
// Chinn–Leighton–Tompa Section 2. A destination-exchangeable algorithm's
// outqueue policy, inqueue policy, and state transitions may depend only on
//
//   - the states, source addresses, and profitable outlinks of packets, and
//   - the state of the node,
//
// never on full destination addresses. Package dex enforces this at the
// type level: policies receive View values (which omit the destination) and
// an adapter translates them to the sim engine. Lemma 10 of the paper —
// that exchanging the destinations of two packets with identical profitable
// outlinks is invisible to the algorithm — therefore holds for every policy
// written against this package, by construction.
//
// The adapter is the sole boundary between policies and the engine's
// index-based packet representation: it walks the node's sim.PacketID queue
// slots, reads the struct-of-arrays store (including Dst, which only the
// adapter may touch) to build View values, and maps a View.Index back to
// the same queue position the engine will read from Schedule. A View is
// therefore a pure projection of store row PacketID: the index is stable
// for the packet's lifetime, row 0 is the engine's reserved sentinel and
// never appears in a queue, and SetPacketState writes through to the store
// row the view was built from.
//
// The outqueue policy (Schedule) and the state transitions (InitNode,
// Update) see the resident packets as Views. The inqueue policy (Accept)
// sees the node state, the queue occupancy, the node's own outqueue
// decision for the step (NodeCtx.Scheduled) and the offers as OfferViews,
// but no resident Views: it never re-runs Schedule to learn what it
// decided.
//
// The adapter reads coordinates, outlinks and profitable sets from a node
// table it builds once per run (8 bytes per node: a packed coordinate and
// the memo of the step's Schedule decision), not from the topology's
// division-based methods; the two agree exactly.
package dex

import (
	"slices"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// View is the information a destination-exchangeable policy may observe
// about one resident packet. It deliberately omits the destination.
type View struct {
	// Index is the packet's index in the node (use it in Schedule).
	Index int
	// Source is the packet's source address (allowed by the model).
	Source grid.NodeID
	// State is the packet's algorithm-owned state word.
	State uint64
	// Arrived is the packet's last travel direction (NoDir at origin).
	// The model permits this: it is information the node could have
	// recorded in the packet state upon arrival.
	Arrived grid.Dir
	// ArrivedStep is the step of the last hop (likewise recordable).
	ArrivedStep int
	// QTag is the queue holding the packet (sim.OriginTag for packets
	// that have not moved, under the per-inlink model).
	QTag uint8
	// Profitable is the set of outlinks that move the packet closer to
	// its destination — the only destination information available.
	Profitable grid.DirSet
}

// OfferView describes a packet scheduled to enter the node, as visible to
// the inqueue policy. Profitable outlinks are measured from the node the
// packet is coming from, as the paper specifies.
type OfferView struct {
	// From is the sending node.
	From grid.NodeID
	// Travel is the direction of travel; the packet arrives on the
	// Travel.Opposite() inlink.
	Travel grid.Dir
	// Source is the packet's source address.
	Source grid.NodeID
	// State is the packet's state word.
	State uint64
	// Profitable is the packet's profitable-outlink set measured at the
	// sending node.
	Profitable grid.DirSet
}

// NodeCtx is the per-node context handed to policies. Policies may read
// everything and may mutate State, Extra and packet states (via SetPacket-
// State); they must not retain the context beyond the call.
//
// InitNode, Schedule and Update see the resident packets as Views. Accept
// sees the node state, the queue occupancy, the outlinks, its own outqueue
// decision for the step (Scheduled) and the offers, but no Views: an
// inqueue policy decides from occupancy and offers, and whatever it needs
// of the residents it already decided in Schedule.
type NodeCtx struct {
	// ID is the node identifier.
	ID grid.NodeID
	// Coord is the node coordinate.
	Coord grid.Coord
	// Step is the current step number (1-based; 0 in InitNode).
	Step int
	// K is the per-queue capacity.
	K int
	// Queues is the queue model.
	Queues sim.QueueModel
	// State is the node's state word; mutate freely.
	State *uint64
	// Extra is the node's rich state; mutate freely.
	Extra *interface{}
	// Views describes the resident packets, in queue (FIFO) order. It is
	// empty in Accept.
	Views []View
	// Outlinks is the set of outlinks that exist at this node.
	Outlinks grid.DirSet
	// Up is the subset of Outlinks whose links are currently up. Without
	// fault injection Up == Outlinks. A fault-aware policy may consult it
	// (link status is locally observable at the node); policies that
	// ignore it behave identically with and without faults — exactly the
	// Section 2 model.
	Up grid.DirSet
	// QueueLens holds the current occupancy of each queue tag.
	QueueLens [5]int
	// Scheduled is set only in Accept: the outlinks on which this node's
	// Schedule placed a packet in the current step, as the policy returned
	// them (before the engine drops sends on failed links). It is empty
	// when the node did not schedule this step (it held no packets).
	Scheduled grid.DirSet

	net  *sim.Network
	pids []sim.PacketID
}

// SetPacketState overwrites the state word of the i-th resident packet.
func (c *NodeCtx) SetPacketState(i int, s uint64) {
	c.net.P.State[c.pids[i]] = s
	c.Views[i].State = s
}

// Policy is a destination-exchangeable routing algorithm.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// InitNode sets the initial node state and the initial states of the
	// packets originating at the node (which, per the model, may depend
	// only on the node's initial state and each packet's own source and
	// profitable outlinks).
	InitNode(c *NodeCtx)
	// Schedule is the outqueue policy: for each direction, the index
	// (into c.Views) of the packet to transmit, or -1.
	Schedule(c *NodeCtx) [grid.NumDirs]int
	// Accept is the inqueue policy: accept[i] reports whether offers[i]
	// is admitted. accept arrives with len(offers) entries, all false;
	// the policy sets the entries it admits. It must never overflow a
	// queue. The context carries the node state, QueueLens, Outlinks, Up
	// and the node's own outqueue decision (Scheduled), but no Views.
	Accept(c *NodeCtx, offers []OfferView, accept []bool)
	// Update is the end-of-step state transition.
	Update(c *NodeCtx)
}

// Adapter lifts a Policy to a sim.Algorithm, computing the profitable-
// outlink views the policy is allowed to see. Use one adapter per run.
type Adapter struct {
	// P is the wrapped policy.
	P Policy

	t        table
	ctx      NodeCtx
	offerBuf []OfferView
	viewBuf  []View
}

// NewAdapter wraps a policy for use with the sim engine.
func NewAdapter(p Policy) *Adapter { return &Adapter{P: p} }

// Name returns the wrapped policy's name.
func (a *Adapter) Name() string { return a.P.Name() }

// Prepare implements sim.Preparer: it builds the node table for net. The
// adapter also builds it on first use, for callers (such as wrappers that
// hide Prepare) that never call it.
func (a *Adapter) Prepare(net *sim.Network) { a.t.build(net) }

// fill sets up the shared context for node n; with views it also builds the
// resident packets' Views.
func (a *Adapter) fill(net *sim.Network, n *sim.Node, views bool) *NodeCtx {
	t := &a.t
	if t.net != net {
		t.build(net)
	}
	c := &a.ctx
	xy := t.xy[n.ID]
	c.ID = n.ID
	c.Coord = t.coord(xy)
	c.Step = net.Step()
	c.K = net.K
	c.Queues = net.Queues
	c.State = &n.State
	c.Extra = &n.Extra
	c.net = net
	c.Outlinks = t.outlinks(xy)
	c.Up = c.Outlinks &^ net.DownOutlinks(n.ID)
	for tag := uint8(0); tag < 5; tag++ {
		c.QueueLens[tag] = n.QueueLen(tag)
	}
	c.Scheduled = 0
	c.Views, c.pids = nil, nil
	if !views {
		return c
	}
	c.pids = net.PacketsOf(n)
	st := &net.P
	a.viewBuf = slices.Grow(a.viewBuf[:0], len(c.pids))[:len(c.pids)]
	for i, p := range c.pids {
		a.viewBuf[i] = View{
			Index:       i,
			Source:      st.Src[p],
			State:       st.State[p],
			Arrived:     st.Arrived[p],
			ArrivedStep: int(st.ArrivedStep[p]),
			QTag:        st.QTag[p],
			Profitable:  t.profitable(xy, st.Dst[p]),
		}
	}
	c.Views = a.viewBuf
	return c
}

// InitNode implements sim.Algorithm.
func (a *Adapter) InitNode(net *sim.Network, n *sim.Node) {
	a.P.InitNode(a.fill(net, n, true))
}

// Schedule implements sim.Algorithm. It records the decision in the node
// table for the same node's Accept in this step.
func (a *Adapter) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	c := a.fill(net, n, true)
	sched := a.P.Schedule(c)
	var set grid.DirSet
	for d, i := range sched {
		if i >= 0 {
			set = set.Set(grid.Dir(d))
		}
	}
	a.t.memo[n.ID] = stamp(c.Step) | uint32(set)
	return sched
}

// Accept implements sim.Algorithm.
func (a *Adapter) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, accept []bool) {
	c := a.fill(net, n, false)
	t := &a.t
	// The stamp is the step modulo 2^28. An entry that old could alias the
	// current step only at a node that did not schedule, that is, one that
	// held no packets at part (a) and so holds none now.
	if m := t.memo[n.ID]; m&^memoSet == stamp(c.Step) && n.Len() > 0 {
		c.Scheduled = grid.DirSet(m & memoSet)
	}
	st := &net.P
	a.offerBuf = a.offerBuf[:0]
	for _, o := range offers {
		a.offerBuf = append(a.offerBuf, OfferView{
			From:       o.From,
			Travel:     o.Travel,
			Source:     st.Src[o.P],
			State:      st.State[o.P],
			Profitable: t.profitable(t.xy[o.From], st.Dst[o.P]),
		})
	}
	a.P.Accept(c, a.offerBuf, accept)
}

// Update implements sim.Algorithm.
func (a *Adapter) Update(net *sim.Network, n *sim.Node) {
	a.P.Update(a.fill(net, n, true))
}

var (
	_ sim.Algorithm = (*Adapter)(nil)
	_ sim.Preparer  = (*Adapter)(nil)
)
