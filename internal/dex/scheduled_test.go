package dex

import (
	"fmt"
	"sync"
	"testing"

	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// nodeStep keys a per-node, per-step record.
type nodeStep struct {
	step int
	node grid.NodeID
}

// schedSpy is a minimal FIFO policy with the swap-rule inqueue policy. It
// records what each node's Schedule returned, and checks in Accept that
// NodeCtx.Scheduled equals that node's decision in the same step, or is
// empty when the node did not schedule. Worker clones share one spy, so
// the records sit behind a mutex.
type schedSpy struct {
	t  *testing.T
	mu sync.Mutex
	// sched holds the directions each node's Schedule filled, per step.
	sched map[nodeStep]grid.DirSet
	// last is the last step each node scheduled in.
	last map[grid.NodeID]int
	// accepts lists the Accept calls, for the stall analysis after the run.
	accepts []nodeStep
	// nonEmpty counts Accept calls with a nonempty Scheduled; stale counts
	// those at a node that scheduled in an earlier step but not in this
	// one; downLink counts those where Scheduled names a failed outlink.
	nonEmpty, stale, downLink int
}

func newSchedSpy(t *testing.T) *schedSpy {
	return &schedSpy{t: t, sched: map[nodeStep]grid.DirSet{}, last: map[grid.NodeID]int{}}
}

func (s *schedSpy) Name() string        { return "schedspy" }
func (s *schedSpy) InitNode(c *NodeCtx) {}
func (s *schedSpy) Update(c *NodeCtx)   {}

func (s *schedSpy) Schedule(c *NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	var set grid.DirSet
	for i, v := range c.Views {
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			if v.Profitable.Has(d) && sched[d] < 0 {
				sched[d] = i
				set = set.Set(d)
				break
			}
		}
	}
	s.mu.Lock()
	s.sched[nodeStep{c.Step, c.ID}] = set
	s.last[c.ID] = c.Step
	s.mu.Unlock()
	return sched
}

func (s *schedSpy) Accept(c *NodeCtx, offers []OfferView, acc []bool) {
	key := nodeStep{c.Step, c.ID}
	s.mu.Lock()
	want, scheduled := s.sched[key]
	if !scheduled && s.last[c.ID] > 0 {
		s.stale++
	}
	if c.Scheduled != 0 {
		s.nonEmpty++
	}
	if c.Scheduled&^c.Up != 0 {
		s.downLink++
	}
	s.accepts = append(s.accepts, key)
	s.mu.Unlock()
	if c.Scheduled != want {
		s.t.Errorf("step %d node %v: Scheduled = %v, Schedule returned %v (scheduled this step: %v)",
			c.Step, c.Coord, c.Scheduled, want, scheduled)
	}
	if len(c.Views) != 0 {
		s.t.Errorf("step %d node %v: Accept saw %d views, want none", c.Step, c.Coord, len(c.Views))
	}
	free := c.K - c.QueueLens[0]
	for i, o := range offers {
		if c.Scheduled.Has(o.Travel.Opposite()) {
			acc[i] = true
		} else if free > 0 {
			acc[i] = true
			free--
		}
	}
}

// TestAcceptScheduledExactAndFresh checks NodeCtx.Scheduled against the
// node's own Schedule output on every Accept call, serially and through
// the parallel pipeline, under fault schedules with link failures and node
// stalls. The run must exercise the cases where a stale memo would show:
// targets that scheduled in an earlier step but were empty at part (a),
// and targets just released from a stall.
func TestAcceptScheduledExactAndFresh(t *testing.T) {
	const n = 8
	topo := grid.NewSquareMesh(n)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var nonEmpty, stale, downLink, postStall int
			for seed := int64(1); seed <= 6; seed++ {
				faults, err := fault.Generate(topo, fault.Config{
					Seed: seed, Horizon: 15,
					LinkFailures: 8, MeanDownSteps: 6,
					NodeStalls: 12, MeanStallSteps: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				net := sim.MustNew(sim.Config{
					Topo: topo, K: 2, Queues: sim.CentralQueue,
					RequireMinimal: true, CheckInvariants: true,
					Faults: faults, Workers: workers,
				})
				if err := workload.Random(topo, seed).Place(net); err != nil {
					t.Fatal(err)
				}
				spy := newSchedSpy(t)
				alg := NewAdapter(spy)
				stalled := map[nodeStep]bool{}
				for i := 0; i < 200 && !net.Done(); i++ {
					// One step per call, so the pool stops between steps.
					if _, err := net.RunPartial(alg, 1); err != nil {
						t.Fatal(err)
					}
					for id := grid.NodeID(0); int(id) < topo.N(); id++ {
						if net.Stalled(id) {
							stalled[nodeStep{net.Step(), id}] = true
						}
					}
				}
				for _, a := range spy.accepts {
					if stalled[nodeStep{a.step - 1, a.node}] {
						postStall++
					}
				}
				nonEmpty += spy.nonEmpty
				stale += spy.stale
				downLink += spy.downLink
			}
			if nonEmpty == 0 || stale == 0 || downLink == 0 || postStall == 0 {
				t.Fatalf("cases not exercised: nonempty %d, empty-at-(a) after an earlier schedule %d, "+
					"failed scheduled outlink %d, just after a stall %d", nonEmpty, stale, downLink, postStall)
			}
		})
	}
}
