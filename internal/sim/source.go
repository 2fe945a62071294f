package sim

import (
	"errors"
	"fmt"
	"slices"

	"meshroute/internal/grid"
)

// Injection is one streamed packet request: a source node asking to inject
// a packet toward a destination at some step. It carries no PacketID — the
// engine materializes a packet only when the injection is accepted into the
// run (immediately for the retry policy, at admission time for the drop
// policy), so refused offers under AdmitDrop never enter the packet store.
type Injection struct {
	// Src is the node requesting the injection.
	Src grid.NodeID
	// Dst is the requested destination.
	Dst grid.NodeID
}

// Source is a streaming workload: the generalization of "place everything
// before step 0" to continuous, online injection. The engine drives an
// attached Source with a strict calling contract that makes seeded sources
// exactly reproducible:
//
//   - Next(t, buf) is called exactly once per step t, for t = 0 (at
//     AttachSource time), then t = 1, 2, … at the start of each engine
//     step, in strictly increasing order;
//   - Next appends this step's injections to buf and returns it — the
//     engine passes a reused buffer, so a steady-state pull allocates
//     nothing once the buffer has reached its working size;
//   - Exhausted(t) is consulted after Next(t) and must report whether the
//     source will produce no injections at any step > t; once it returns
//     true the engine never calls the source again;
//   - implementations that consume a seeded RNG must consume it only
//     inside Next, so the single-call-per-step contract pins the random
//     stream and identical seeds yield identical runs.
//
// Step-0 injections are placements: they go through the same admission as
// Place, so a Source that emits everything at step 0 is the degenerate
// one-shot case (see internal/workload's Replay).
type Source interface {
	// Next appends the injections arriving at the given step to buf and
	// returns the (possibly reallocated) buffer.
	Next(step int, buf []Injection) []Injection
	// Exhausted reports, after Next(step) has been called, that no
	// injections will be produced for any later step.
	Exhausted(step int) bool
}

// AdmissionPolicy selects what happens to an injection whose source node's
// k-bounded queue has no free slot at arrival time.
type AdmissionPolicy uint8

const (
	// AdmitRetry parks refused injections in the node's unbounded FIFO
	// backlog and retries every step until a slot frees up — the
	// destination-independent entry discipline of the paper's Section 5
	// dynamic extension (and of QueueInjection, whose machinery it
	// reuses). No injection is ever lost; each step a packet waits in the
	// backlog counts as one refusal.
	AdmitRetry AdmissionPolicy = iota
	// AdmitDrop discards refused injections at arrival time — the
	// loss-model of the online bounded-buffer setting (Even–Medina–
	// Patt-Shamir), where the figure of merit is the throughput of the
	// admitted packets. Dropped injections are counted but never
	// materialized, so they do not appear in Packets() or totals.
	AdmitDrop
)

// AttachSource installs a streaming workload on the network, to be pulled
// once per step by the injection phase, and immediately admits the source's
// step-0 injections as placements (the degenerate one-shot case): each is
// placed exactly like Place, so a central-queue overflow at step 0 is an
// error under AdmitRetry and a counted drop under AdmitDrop. It is an error
// to attach a source after the run has started or to attach two sources.
func (net *Network) AttachSource(src Source, policy AdmissionPolicy) error {
	if net.step != 0 || net.inited {
		return errors.New("sim: AttachSource after run started")
	}
	if net.source != nil {
		return errors.New("sim: source already attached")
	}
	if policy != AdmitRetry && policy != AdmitDrop {
		return fmt.Errorf("sim: unknown admission policy %d", policy)
	}
	net.source = src
	net.admit = policy
	buf := src.Next(0, net.injBuf[:0])
	net.injBuf = buf[:0]
	for _, inj := range buf {
		net.Metrics.Offered++
		if policy == AdmitDrop && inj.Src != inj.Dst && net.Queues == CentralQueue &&
			net.nodes[inj.Src].QueueLen(0) >= net.K {
			net.Metrics.Refused++
			net.Metrics.Dropped++
			continue
		}
		if err := net.Place(net.NewPacket(inj.Src, inj.Dst)); err != nil {
			return err
		}
		net.Metrics.Admitted++
	}
	net.srcExhausted = src.Exhausted(0)
	net.openSource = !net.srcExhausted
	return nil
}

// OpenWorkload reports whether the network was populated by a Source that
// injects beyond step 0 — an online run, for which throughput and refusal
// statistics are meaningful. One-shot sources (everything at step 0) and
// source-less networks report false.
func (net *Network) OpenWorkload() bool { return net.openSource }

// ReserveInjections pre-grows the packet store and placement list for n
// additional packets, so a benchmarked or latency-sensitive online run can
// move the amortized append growth out of the measured window. Purely an
// optimization: sources work without it, at amortized-O(1) append cost.
func (net *Network) ReserveInjections(n int) {
	st := &net.P
	st.Src = slices.Grow(st.Src, n)
	st.Dst = slices.Grow(st.Dst, n)
	st.At = slices.Grow(st.At, n)
	st.State = slices.Grow(st.State, n)
	st.Arrived = slices.Grow(st.Arrived, n)
	st.QTag = slices.Grow(st.QTag, n)
	st.Class = slices.Grow(st.Class, n)
	st.Tag = slices.Grow(st.Tag, n)
	st.ArrivedStep = slices.Grow(st.ArrivedStep, n)
	st.InjectStep = slices.Grow(st.InjectStep, n)
	st.DeliverStep = slices.Grow(st.DeliverStep, n)
	st.Hops = slices.Grow(st.Hops, n)
	st.slot = slices.Grow(st.slot, n)
	st.departing = slices.Grow(st.departing, n)
	net.placed = slices.Grow(net.placed, n)
}

// sourcePacket materializes one accepted streamed injection: the packet
// enters the store, the placement list and the conservation totals, exactly
// as a QueueInjection packet would.
func (net *Network) sourcePacket(inj Injection) PacketID {
	p := net.P.add(inj.Src, inj.Dst)
	if net.analyzer != nil {
		net.analyzer.Admit(inj.Src, inj.Dst)
	}
	net.placed = append(net.placed, p)
	net.total++
	return p
}

// pullSource asks the attached source for step t's injections and admits
// them under the configured policy. Under AdmitRetry the injections
// materialize immediately and join the per-node backlog (behind any
// QueueInjection packets due this step), to be drained by the normal FIFO
// admission below; under AdmitDrop each injection is admitted directly if
// its source queue has room (and the node is not stalled) and discarded —
// without ever materializing — otherwise.
func (net *Network) pullSource(t int) {
	st := &net.P
	buf := net.source.Next(t, net.injBuf[:0])
	net.injBuf = buf[:0] // keep the grown capacity for the next pull
	net.stepOffered += len(buf)
	if net.admit == AdmitDrop {
		for _, inj := range buf {
			if inj.Src == inj.Dst {
				p := net.sourcePacket(inj)
				st.InjectStep[p] = int32(t)
				st.DeliverStep[p] = int32(t)
				net.delivered++
				net.Metrics.noteDelivered(t, t)
				net.stepAdmitted++
				continue
			}
			node := &net.nodes[inj.Src]
			if (net.hasFaults && net.stalledCnt[inj.Src] > 0) ||
				(net.Queues == CentralQueue && node.QueueLen(0) >= net.K) {
				net.stepDropped++
				continue
			}
			p := net.sourcePacket(inj)
			st.InjectStep[p] = int32(t)
			tag := uint8(0)
			if net.Queues == PerInlinkQueues {
				tag = OriginTag
			}
			net.attach(node, p, tag)
			net.stepAdmitted++
		}
	} else {
		for _, inj := range buf {
			p := net.sourcePacket(inj)
			net.backlog[inj.Src] = append(net.backlog[inj.Src], p)
			if !net.inBacklog[inj.Src] {
				net.inBacklog[inj.Src] = true
				net.backlogNodes = append(net.backlogNodes, inj.Src)
			}
			net.backlogTotal++
		}
	}
	net.srcExhausted = net.source.Exhausted(t)
}
