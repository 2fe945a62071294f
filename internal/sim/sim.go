// Package sim implements the synchronous, multi-port packet-routing model of
// Chinn, Leighton and Tompa (Section 2): an n×n mesh or torus in which every
// node holds a bounded queue of packets and one step consists of
//
//	(a) each node's outqueue policy choosing at most one packet per outlink,
//	(b) an optional adversary exchange of destination addresses,
//	(c) each node's inqueue policy accepting or refusing incoming packets,
//	(d) simultaneous transmission of the accepted packets, and
//	(e) node- and packet-state updates,
//
// exactly the five-part step sequence used in the paper's lower-bound
// construction. Packets that reach their destination are delivered and leave
// the network.
//
// The engine supports the central-queue model (one queue of capacity K per
// node) and the four-incoming-queues model of Section 5 / Theorem 15 (one
// queue of capacity K per inlink). It iterates only over occupied nodes, so
// long runs on sparse instances cost O(packets) per step.
//
// # Index-based packet representation
//
// Packet state is stored struct-of-arrays: every per-packet field lives in
// its own dense slice inside the Network's PacketStore (the exported P
// field), and packets are referenced everywhere — queue slots, scheduled
// moves, offers, adversary role indices — by PacketID, a uint32 index into
// those slices. Queue contents are PacketID slots in one flat backing array
// shared by all nodes (each node owns a contiguous region of it), so a step
// touches dense, cache-adjacent memory instead of chasing per-packet
// pointers. The representation upholds two invariants that all client code
// may rely on:
//
//   - a PacketID is stable for the packet's lifetime: NewPacket assigns the
//     next free index and nothing ever moves a packet to a different index;
//   - slot 0 of the store is never a live packet: index 0 is a reserved
//     sentinel, so the zero PacketID is always "no packet" and external
//     packet IDs are PacketID-1.
//
// The old pointer-based *Packet API survives as a by-value snapshot: Packet
// is now a plain value struct and Network.Packets materializes the store
// into a reused snapshot slice for read-only consumers (digests, replay
// verification, rendering). Mutating a snapshot does not affect the run;
// write through the store (or engine methods) instead.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// QueueModel selects how a node's storage is organized.
type QueueModel uint8

const (
	// CentralQueue gives each node a single queue of capacity K
	// (the model of Sections 2-4).
	CentralQueue QueueModel = iota
	// PerInlinkQueues gives each node four queues of capacity K, one per
	// inlink (the "Other Queue Types" model of Section 5, used by the
	// Theorem 15 router). Packets that originate at a node live in a
	// separate origin buffer that does not count against K.
	PerInlinkQueues
)

// Queue tags. For PerInlinkQueues, tags 0..3 are the inlink queues named by
// the direction the packet came *from* (a packet travelling East arrives in
// the West queue). OriginTag holds packets that have not yet moved.
const (
	// OriginTag is the queue tag of packets still at their source.
	OriginTag uint8 = 4
	numTags         = 5
)

// PacketID is the engine's handle for one packet: an index into the dense
// per-field slices of the PacketStore. It is assigned by NewPacket, is
// stable for the packet's lifetime, and 0 is a reserved sentinel that never
// names a live packet (so the zero value always means "no packet").
type PacketID uint32

// NoPacket is the zero PacketID sentinel.
const NoPacket PacketID = 0

// ID returns the packet's external identifier: dense, 0-based, in creation
// order. It equals the index minus one (index 0 is the reserved sentinel),
// so IDs are identical to those the pointer-based engine assigned.
func (p PacketID) ID() int32 { return int32(p) - 1 }

// PacketStore is the struct-of-arrays backing store for all packets of a
// Network: field i of packet p lives at slice[p] of the corresponding dense
// slice. All exported slices are indexed by PacketID; index 0 is a reserved
// sentinel (never a live packet). Fields may be read — and, for adversary
// exchange hooks and tests, written — directly; the engine maintains At,
// QTag, Arrived, ArrivedStep, InjectStep, DeliverStep and Hops itself.
type PacketStore struct {
	// Src is the node where the packet was injected.
	Src []grid.NodeID
	// Dst is the destination. The adversary exchange hook may swap the
	// Dst entries of two packets mid-run (part (b) of a step).
	Dst []grid.NodeID
	// At is the node currently holding the packet (its destination once
	// delivered). Maintained by the engine.
	At []grid.NodeID
	// State is algorithm-owned scratch that travels with the packet.
	// Under destination-exchangeability it may be updated only from
	// information listed in Section 2 of the paper.
	State []uint64
	// Arrived is the direction of travel of the packet's last hop
	// (NoDir if it has not moved).
	Arrived []grid.Dir
	// QTag is the queue within its current node that holds the packet.
	QTag []uint8
	// Class is a free tag for algorithms and adversaries (e.g. the
	// N_i/E_i packet kind in the lower-bound construction).
	Class []uint8
	// Tag is a free integer tag (e.g. the i index of an N_i-packet).
	Tag []int32
	// ArrivedStep is the step of the packet's last hop (0 if none).
	ArrivedStep []int32
	// InjectStep is the step at which the packet entered the network.
	InjectStep []int32
	// DeliverStep is the step at which the packet was delivered, or -1.
	DeliverStep []int32
	// Hops counts link traversals.
	Hops []int32

	// slot is the packet's position within its holder's queue region,
	// maintained by the engine (attach and the part (d) compaction), so
	// removal never needs a scan.
	slot []int32
	// departing marks a packet scheduled to leave its node during the
	// part (d) batch removal of the current step.
	departing []bool
}

// Len returns the number of packets ever created (excluding the sentinel).
func (st *PacketStore) Len() int { return len(st.Src) - 1 }

// Delivered reports whether the packet has reached its destination.
func (st *PacketStore) Delivered(p PacketID) bool { return st.DeliverStep[p] >= 0 }

// add appends one packet to every field slice and returns its index.
func (st *PacketStore) add(src, dst grid.NodeID) PacketID {
	st.Src = append(st.Src, src)
	st.Dst = append(st.Dst, dst)
	st.At = append(st.At, src)
	st.State = append(st.State, 0)
	st.Arrived = append(st.Arrived, grid.NoDir)
	st.QTag = append(st.QTag, 0)
	st.Class = append(st.Class, 0)
	st.Tag = append(st.Tag, 0)
	st.ArrivedStep = append(st.ArrivedStep, 0)
	st.InjectStep = append(st.InjectStep, 0)
	st.DeliverStep = append(st.DeliverStep, -1)
	st.Hops = append(st.Hops, 0)
	st.slot = append(st.slot, -1)
	st.departing = append(st.departing, false)
	return PacketID(len(st.Src) - 1)
}

// Packet is a read-only by-value snapshot of one packet, materialized from
// the PacketStore by Network.Packets or Network.PacketSnapshot. Routing
// algorithms under the destination-exchangeability restriction never see
// Dst directly; they receive profitable-outlink views computed by the
// engine (package dex).
type Packet struct {
	// ID is a unique, dense identifier (PacketID minus one).
	ID int32
	// Src is the node where the packet was injected.
	Src grid.NodeID
	// Dst is the destination at snapshot time.
	Dst grid.NodeID
	// State is the algorithm-owned scratch word.
	State uint64
	// Arrived is the direction of travel of the packet's last hop
	// (NoDir if it has not moved).
	Arrived grid.Dir
	// ArrivedStep is the step of the packet's last hop (0 if none).
	ArrivedStep int
	// InjectStep is the step at which the packet entered the network.
	InjectStep int
	// DeliverStep is the step at which the packet was delivered, or -1.
	DeliverStep int
	// Hops counts link traversals.
	Hops int
	// At is the node currently holding the packet (its destination once
	// delivered).
	At grid.NodeID
	// QTag is the queue within its current node that holds the packet.
	QTag uint8
	// Class is a free tag for algorithms and adversaries.
	Class uint8
	// Tag is a free integer tag.
	Tag int32
}

// Delivered reports whether the packet has reached its destination.
func (p Packet) Delivered() bool { return p.DeliverStep >= 0 }

// Node is one mesh node: its algorithm state and the location of its queue
// region within the network's flat slot array. Queue contents are read with
// Network.PacketsOf.
type Node struct {
	// ID is the node identifier.
	ID grid.NodeID
	// State is algorithm-owned scratch (e.g. round-robin counters).
	State uint64
	// Extra is algorithm-owned rich state for algorithms that need more
	// than a word; nil for most.
	Extra interface{}

	// qStart/qLen/qCap locate the node's queue region in Network.slots:
	// the resident packets, in arrival (FIFO) order, are
	// slots[qStart : qStart+qLen], inside a reserved region of qCap slots.
	qStart, qLen, qCap uint32

	counts [numTags]int16
}

// Len returns the number of resident packets (including the origin buffer).
func (n *Node) Len() int { return int(n.qLen) }

// QueueLen returns the number of packets in the queue with the given tag.
func (n *Node) QueueLen(tag uint8) int { return int(n.counts[tag]) }

// NetworkLen returns the number of resident packets excluding the origin
// buffer (i.e. packets that count against queue capacity in the
// per-inlink-queue model).
func (n *Node) NetworkLen() int { return n.Len() - n.QueueLen(OriginTag) }

// Offer describes a packet scheduled to enter a node during part (a) of the
// current step, presented to the target's inqueue policy in part (c).
type Offer struct {
	// P is the scheduled packet.
	P PacketID
	// From is the node the packet is coming from.
	From grid.NodeID
	// Travel is the direction of travel (the sender's outlink); the
	// packet arrives on the target's Travel.Opposite() inlink.
	Travel grid.Dir
}

// Move describes one scheduled transmission, given to the exchange hook
// (part (b)).
type Move struct {
	// P is the scheduled packet.
	P PacketID
	// From is the sending node.
	From grid.NodeID
	// To is the target node.
	To grid.NodeID
	// Travel is the direction of travel.
	Travel grid.Dir
}

// ExchangeFn is the adversary hook invoked between scheduling and
// acceptance. It may swap the Dst entries of packet pairs (an "exchange" in
// the paper's sense) but must not move, add or remove packets.
type ExchangeFn func(net *Network, step int, moves []Move)

// Algorithm is a routing algorithm driven by the engine. Implementations
// must be deterministic. Destination-exchangeable algorithms should be
// built with package dex, which restricts the information they can see;
// general algorithms (e.g. farthest-first) may inspect the packet store
// freely.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// InitNode sets up node (and origin packet) state before step 1.
	// It is called once per node holding at least one packet.
	InitNode(net *Network, n *Node)
	// Schedule implements the outqueue policy: for each direction it
	// returns the index (into net.PacketsOf(n)) of the packet to send on
	// that outlink, or -1. A packet may be scheduled on at most one
	// outlink, and only on an existing outlink.
	Schedule(net *Network, n *Node) [grid.NumDirs]int
	// Accept implements the inqueue policy: accept[i] reports whether
	// offers[i] is admitted. The engine provides accept with exactly
	// len(offers) entries, cleared to false; the policy sets the entries
	// it admits. It must never overflow a queue.
	Accept(net *Network, n *Node, offers []Offer, accept []bool)
	// Update is the part (e) state update, called for every node that
	// held a packet at the start or end of the step.
	Update(net *Network, n *Node)
}

// Preparer is implemented by algorithms that build per-run tables from the
// network they drive. The engine calls Prepare once, before the first
// InitNode of a run. Prepare must be idempotent for a given network.
type Preparer interface {
	Prepare(net *Network)
}

// Config configures a Network.
type Config struct {
	// Topo is the mesh or torus.
	Topo grid.Topology
	// K is the capacity of each queue (k >= 1 in the paper).
	K int
	// Queues selects the queue model.
	Queues QueueModel
	// RequireMinimal makes the engine reject any scheduled move that is
	// not profitable (shortest-path). Enable for minimal routers.
	RequireMinimal bool
	// MaxStray, when > 0, bounds how far a packet may move beyond the
	// rectangle spanned by its source and destination — the class of the
	// Section 5 "Nonminimal extensions" with δ = MaxStray: every move
	// must keep the packet within that rectangle inflated by MaxStray in
	// each direction. 0 means unrestricted (when RequireMinimal is
	// false). Mesh only.
	MaxStray int
	// CheckInvariants enables the per-step runtime invariant checker:
	// queue capacity under either queue model, per-node count
	// consistency, and packet conservation (see checkStepInvariants).
	// When false the engine pays one branch per step and zero
	// allocations for it.
	CheckInvariants bool
	// Faults is an optional deterministic fault schedule (link failures,
	// node stalls) applied at the start of each step; nil disables fault
	// injection entirely. See internal/fault and docs/ROBUSTNESS.md.
	Faults *fault.Schedule
	// Watchdog, when > 0, is the livelock watchdog's no-progress window
	// in steps: if Run/RunPartial executes this many consecutive steps
	// without a single delivery, the run aborts with a *LivelockError
	// carrying structured diagnostics instead of burning the remaining
	// step budget. 0 disables the watchdog.
	Watchdog int
	// Workers is ignored: every step runs serially. New still rejects a
	// negative value.
	//
	// Deprecated: the engine has no intra-step parallelism; parallelize
	// across runs instead (scenario.Runner.Workers, internal/par).
	Workers int
}

// Network is a mesh with packets in flight. Create with New, populate with
// Place/QueueInjection, then drive with Run or StepOnce.
type Network struct {
	// Topo is the topology the network was built on.
	Topo grid.Topology
	// K is the per-queue capacity.
	K int
	// Queues is the queue model.
	Queues QueueModel

	// P is the struct-of-arrays packet store: P.Src[p], P.Dst[p], … are
	// the fields of PacketID p. Index 0 is a reserved sentinel.
	P PacketStore

	cfg   Config
	nodes []Node
	step  int

	// slots is the flat queue-slot array: every node's queue is a
	// contiguous region of it (see Node.qStart/qLen/qCap). Regions grow by
	// doubling (relocating to the end of slots and abandoning the old
	// region), so at steady state no attach ever allocates.
	slots []PacketID

	// occ is the occupied-node list, in first-occupied (insertion) order —
	// NOT sorted. Its order is deterministic: it depends only on the
	// placement/injection sequence and the algorithm's moves, so identical
	// runs see identical occ order (pinned by TestOccupiedOrderDeterminism).
	// Parts (a) and (e) iterate it, which fixes the order moves are
	// presented to the exchange hook and offers to inqueue policies.
	occ       []grid.NodeID
	isOcc     []bool
	total     int
	delivered int
	placed    []PacketID // all placed/queued packets, in placement order
	snapshot  []Packet   // reused buffer backing Packets()

	pendingInj map[int][]PacketID // injection step -> packets
	backlog    [][]PacketID       // per node: injected but not yet in queue

	// Active-backlog tracking: the nodes whose backlog is nonempty, so
	// injectPending touches O(active) slots per step instead of scanning
	// all N backlog slots. inBacklog is the membership bitmap; backlogHead
	// is the index of each backlog's first undrained packet, so draining
	// advances an index instead of reslicing (which would shed the slice's
	// base pointer and force a fresh allocation every refill).
	backlogNodes []grid.NodeID
	inBacklog    []bool
	backlogHead  []int32

	// Streaming-workload state (see source.go). The source is pulled once
	// per step by the injection phase; injBuf is the reused Next buffer.
	source       Source
	admit        AdmissionPolicy
	srcExhausted bool
	openSource   bool // source injects beyond step 0 (an online run)
	injBuf       []Injection

	// analyzer, when non-nil, observes every packet that materializes in
	// the run (placements, queued injections, admitted streamed
	// injections) so congestion/dilation accrue at admission time. Nil
	// when analysis is off: the hook is one pointer test per admission.
	analyzer Analyzer

	// Per-step admission counters, reset at the top of the injection
	// phase and folded into Metrics / the step sample at its end.
	stepOffered  int
	stepAdmitted int
	stepRefused  int
	stepDropped  int

	exchange  ExchangeFn
	observer  ObserverFn
	sink      obs.Sink
	eventSink obs.EventSink // sink, if it also records fault events

	// Conservation counters for the invariant checker.
	pendingTotal int // packets queued for injection, not yet backlogged
	backlogTotal int // packets in per-source backlogs, not yet in a queue

	// Fault-injection state (allocated only when cfg.Faults is set).
	hasFaults   bool
	faultCursor int                   // next unapplied schedule event
	linkDownCnt [][grid.NumDirs]int16 // per node: open transient downs per outlink
	linkPerm    []grid.DirSet         // per node: permanently failed outlinks
	stalledCnt  []int16               // per node: open stall episodes

	lastProgress int // last step with a delivery (watchdog progress mark)

	// Metrics accumulates run statistics.
	Metrics Metrics

	inited  bool
	scratch stepScratch
}

// stepScratch holds every per-step buffer the engine needs, reused across
// steps so a steady-state step allocates nothing. The four int32 arrays are
// node-indexed; offMark/sendMark use epoch stamping (compared against stamp)
// so they never need clearing.
type stepScratch struct {
	moves   []Move
	targets []grid.NodeID // part (c) offer targets, first-seen order

	// Dense per-node offer index: offers for targets[j] occupy
	// offers[offStart[t]:offStart[t]+offCount[t]]. offMark[t] == stamp
	// marks t as a target of the current step.
	offers   []Offer
	offStart []int32
	offCount []int32
	offMark  []int32
	// sendMark deduplicates sender nodes in the part (d) batch removal.
	sendMark []int32
	stamp    int32

	arrivals []arrival
	accept   []bool        // Accept decision buffer, sliced per target
	senders  []grid.NodeID // distinct sending nodes of this step's arrivals

	// Observer record buffers (reused only when an observer is set).
	recMoves     []Move
	recDelivered []int32
}

// New creates an empty network, validating the configuration: the
// topology must be non-nil, K >= 1, the queue model known, MaxStray and
// Watchdog non-negative, and any fault schedule consistent with the
// topology.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, errors.New("sim: nil topology")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("sim: queue capacity K=%d, need K >= 1", cfg.K)
	}
	if cfg.Queues != CentralQueue && cfg.Queues != PerInlinkQueues {
		return nil, fmt.Errorf("sim: unknown queue model %d", cfg.Queues)
	}
	if cfg.MaxStray < 0 {
		return nil, fmt.Errorf("sim: negative MaxStray %d", cfg.MaxStray)
	}
	if cfg.Watchdog < 0 {
		return nil, fmt.Errorf("sim: negative watchdog window %d", cfg.Watchdog)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sim: negative worker count %d", cfg.Workers)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Topo); err != nil {
			return nil, err
		}
	}
	n := cfg.Topo.N()
	net := &Network{
		Topo:       cfg.Topo,
		K:          cfg.K,
		Queues:     cfg.Queues,
		cfg:        cfg,
		nodes:      make([]Node, n),
		isOcc:      make([]bool, n),
		pendingInj: map[int][]PacketID{},
		backlog:    make([][]PacketID, n),
		inBacklog:  make([]bool, n),
	}
	net.backlogHead = make([]int32, n)
	for i := range net.nodes {
		net.nodes[i].ID = grid.NodeID(i)
	}
	// Index 0 of the packet store is the reserved sentinel: never a live
	// packet, so the zero PacketID always means "no packet".
	net.P.add(0, 0)
	net.scratch.offStart = make([]int32, n)
	net.scratch.offCount = make([]int32, n)
	net.scratch.offMark = make([]int32, n)
	net.scratch.sendMark = make([]int32, n)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		net.hasFaults = true
		net.linkDownCnt = make([][grid.NumDirs]int16, n)
		net.linkPerm = make([]grid.DirSet, n)
		net.stalledCnt = make([]int16, n)
	}
	return net, nil
}

// MustNew is New but panics on a bad configuration, for tests, benchmarks
// and generators that construct known-valid networks.
func MustNew(cfg Config) *Network {
	net, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return net
}

// Step returns the number of steps executed so far.
func (net *Network) Step() int { return net.step }

// Node returns the node with the given identifier.
func (net *Network) Node(id grid.NodeID) *Node { return &net.nodes[id] }

// PacketsOf returns the node's resident packets in arrival (FIFO) order, as
// PacketID handles into the store. The slice aliases the engine's flat slot
// array: treat it as read-only, and do not retain it across engine calls
// (part (d) compaction and queue growth may rewrite or relocate it).
func (net *Network) PacketsOf(n *Node) []PacketID {
	return net.slots[n.qStart : n.qStart+n.qLen : n.qStart+n.qCap]
}

// PacketSnapshot materializes one packet's current store fields as a Packet
// value.
func (net *Network) PacketSnapshot(p PacketID) Packet {
	st := &net.P
	return Packet{
		ID:          p.ID(),
		Src:         st.Src[p],
		Dst:         st.Dst[p],
		State:       st.State[p],
		Arrived:     st.Arrived[p],
		ArrivedStep: int(st.ArrivedStep[p]),
		InjectStep:  int(st.InjectStep[p]),
		DeliverStep: int(st.DeliverStep[p]),
		Hops:        int(st.Hops[p]),
		At:          st.At[p],
		QTag:        st.QTag[p],
		Class:       st.Class[p],
		Tag:         st.Tag[p],
	}
}

// Packets materializes all packets ever placed or injected, in placement
// order (ID order for workloads that place packets as they create them),
// as by-value snapshots. Delivered packets remain in the slice (with
// DeliverStep set). The returned slice is a reused buffer owned by the
// network: it is valid until the next Packets call and mutating it does not
// affect the run.
func (net *Network) Packets() []Packet {
	if cap(net.snapshot) < len(net.placed) {
		net.snapshot = make([]Packet, 0, len(net.placed))
	}
	out := net.snapshot[:0]
	for _, p := range net.placed {
		out = append(out, net.PacketSnapshot(p))
	}
	net.snapshot = out
	return out
}

// TotalPackets returns the number of packets placed or queued for injection.
func (net *Network) TotalPackets() int { return net.total }

// DeliveredCount returns the number of packets delivered so far.
func (net *Network) DeliveredCount() int { return net.delivered }

// Done reports whether the run is quiescent: every materialized packet has
// been delivered, no injections are still scheduled, and any attached
// streaming source is exhausted. For open workloads (a live source) Done
// stays false until the source dries up and the network drains, so run
// termination comes from the step budget (the horizon) instead.
func (net *Network) Done() bool {
	return (net.source == nil || net.srcExhausted) &&
		net.delivered == net.total && len(net.pendingInj) == 0
}

// SetExchange installs the adversary exchange hook.
func (net *Network) SetExchange(fn ExchangeFn) { net.exchange = fn }

// StepRecord describes what happened in one step, for observers.
type StepRecord struct {
	// Step is the step number.
	Step int
	// Moves lists the applied (accepted) transmissions, including
	// deliveries.
	Moves []Move
	// Delivered lists the IDs of packets delivered this step.
	Delivered []int32
}

// ObserverFn receives a record after each step. The record and its slices
// are only valid during the call.
type ObserverFn func(rec StepRecord)

// SetObserver installs a per-step observer (tracing, visualization).
func (net *Network) SetObserver(fn ObserverFn) { net.observer = fn }

// SetMetricsSink installs a metrics sink that receives one obs.StepSample
// at the end of every step: per-direction link utilization, the delivery
// curve, in-flight packet counts, and the end-of-step queue-occupancy
// histogram. A nil sink (the default) disables sampling entirely; the
// step loop then pays one branch and allocates nothing extra. Pass an
// untyped nil to disable — a nil *obs.JSONL stored in the interface is
// not nil and will be called.
func (net *Network) SetMetricsSink(s obs.Sink) {
	net.sink = s
	net.eventSink, _ = s.(obs.EventSink)
}

// MetricsSink returns the installed metrics sink, or nil.
func (net *Network) MetricsSink() obs.Sink { return net.sink }

// LinkUp reports whether the directed channel (id, d) is currently up.
// Without a fault schedule every link is always up.
func (net *Network) LinkUp(id grid.NodeID, d grid.Dir) bool {
	if !net.hasFaults {
		return true
	}
	return !net.linkPerm[id].Has(d) && net.linkDownCnt[id][d] == 0
}

// DownOutlinks returns the set of currently-failed outlink directions of
// the node (empty without faults). The complement against the node's
// existing outlinks is the set a fault-aware router may use.
func (net *Network) DownOutlinks(id grid.NodeID) grid.DirSet {
	if !net.hasFaults {
		return 0
	}
	s := net.linkPerm[id]
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if net.linkDownCnt[id][d] > 0 {
			s = s.Set(d)
		}
	}
	return s
}

// Stalled reports whether the node is currently stalled by a fault.
func (net *Network) Stalled(id grid.NodeID) bool {
	return net.hasFaults && net.stalledCnt[id] > 0
}

// emitEvent forwards a fault/watchdog event to the metrics sink, if the
// sink records events.
func (net *Network) emitEvent(e obs.Event) {
	if net.eventSink != nil {
		net.eventSink.Event(e)
	}
}

// Analyzer observes every packet that materializes in a run, at the
// moment it is admitted (placed, queued for injection, or streamed in).
// internal/analysis.Accumulator implements it to accrue congestion and
// dilation incrementally; the engine itself never imports the analysis
// package. Implementations must not allocate if the run is to stay
// zero-alloc, and must not retain references into the network.
type Analyzer interface {
	Admit(src, dst grid.NodeID)
}

// SetAnalyzer installs (or, with nil, removes) the admission-time
// analyzer. It must be called before any packet is admitted; with no
// analyzer installed the admission paths pay one nil test.
func (net *Network) SetAnalyzer(a Analyzer) { net.analyzer = a }

// NewPacket allocates a packet with the next free index, routed from src to
// dst, in the network's struct-of-arrays store. The packet is not placed;
// use Place or QueueInjection. The returned PacketID is stable for the life
// of the network.
func (net *Network) NewPacket(src, dst grid.NodeID) PacketID {
	return net.P.add(src, dst)
}

// Place puts a packet at its source node before the run starts. A packet
// whose source equals its destination is delivered immediately. Placement
// must respect the queue capacity in the central-queue model.
func (net *Network) Place(p PacketID) error {
	if net.step != 0 || net.inited {
		return errors.New("sim: Place after run started")
	}
	st := &net.P
	if net.analyzer != nil {
		net.analyzer.Admit(st.Src[p], st.Dst[p])
	}
	net.placed = append(net.placed, p)
	net.total++
	st.At[p] = st.Src[p]
	if st.Src[p] == st.Dst[p] {
		st.DeliverStep[p] = 0
		net.delivered++
		net.Metrics.noteDelivered(0, 0)
		return nil
	}
	node := &net.nodes[st.Src[p]]
	tag := OriginTag
	if net.Queues == CentralQueue {
		tag = 0
		if node.QueueLen(0) >= net.K {
			return fmt.Errorf("sim: node %v over capacity at placement (K=%d)", net.Topo.CoordOf(st.Src[p]), net.K)
		}
	}
	net.attach(node, p, tag)
	return nil
}

// MustPlace is Place but panics on error (for tests and generators that
// construct known-valid instances).
func (net *Network) MustPlace(p PacketID) {
	if err := net.Place(p); err != nil {
		panic(err)
	}
}

// QueueInjection schedules a packet to enter the network at the given step
// (>= 1). The packet waits in an unbounded per-source backlog and enters its
// source node's queue, in FIFO order, as soon as there is room; the entry
// time therefore does not depend on the packet's destination, as the
// dynamic-routing extension in Section 5 requires.
func (net *Network) QueueInjection(p PacketID, step int) {
	if step < 1 {
		step = 1
	}
	st := &net.P
	if net.analyzer != nil {
		net.analyzer.Admit(st.Src[p], st.Dst[p])
	}
	st.At[p] = st.Src[p]
	net.placed = append(net.placed, p)
	net.total++
	net.pendingTotal++
	net.pendingInj[step] = append(net.pendingInj[step], p)
}

// minQueueCap is the initial slot-region capacity of a node's queue.
const minQueueCap = 4

// growQueue relocates the node's queue region to the end of the flat slot
// array with doubled capacity. The abandoned region is never reused, which
// bounds total slot memory at twice the peak live capacity; at steady state
// (no queue ever exceeding its region) attach allocates nothing.
func (net *Network) growQueue(n *Node) {
	newCap := n.qCap * 2
	if newCap < minQueueCap {
		newCap = minQueueCap
	}
	start := uint32(len(net.slots))
	net.slots = slices.Grow(net.slots, int(newCap))[:int(start+newCap)]
	copy(net.slots[start:], net.slots[n.qStart:n.qStart+n.qLen])
	n.qStart, n.qCap = start, newCap
}

// attach adds p to node under queue tag, maintaining occupancy tracking and
// the packet's slot index (used by the part (d) batch removal).
func (net *Network) attach(node *Node, p PacketID, tag uint8) {
	st := &net.P
	st.QTag[p] = tag
	st.At[p] = node.ID
	if node.qLen == node.qCap {
		net.growQueue(node)
	}
	st.slot[p] = int32(node.qLen)
	net.slots[node.qStart+node.qLen] = p
	node.qLen++
	node.counts[tag]++
	if !net.isOcc[node.ID] {
		net.isOcc[node.ID] = true
		net.occ = append(net.occ, node.ID)
	}
}

// capOf returns the capacity of the queue with the given tag.
func (net *Network) capOf(tag uint8) int {
	if tag == OriginTag {
		if net.Queues == PerInlinkQueues {
			return int(^uint(0) >> 1) // unbounded origin buffer
		}
		return net.K
	}
	return net.K
}
