package sim

import (
	"testing"

	"meshroute/internal/grid"
)

// Config.Workers is deprecated and ignored: every step runs serially. The
// tests in this file pin that a set Workers value changes nothing a run
// can observe — outcomes, occupied-list order or allocations — so that
// callers still setting it (old spec JSON, the benchmark module) get the
// serial engine exactly.

// TestParallelWorkersBitIdentical drives the same instance with Workers
// unset and with several worker counts and requires identical per-packet
// outcomes AND an identical occupied-list order after every step.
func TestParallelWorkersBitIdentical(t *testing.T) {
	const n, k, steps = 12, 2, 120
	for _, workers := range []int{2, 3, 8} {
		ref := buildDynamic(t, n, k, steps, 0)
		got := buildDynamic(t, n, k, steps, workers)
		for s := 0; s < steps; s++ {
			if ref.Done() && got.Done() {
				break
			}
			if err := ref.StepOnce(greedyXY{}); err != nil {
				t.Fatal(err)
			}
			if err := got.StepOnce(greedyXY{}); err != nil {
				t.Fatal(err)
			}
			ro, po := ref.Occupied(), got.Occupied()
			if len(ro) != len(po) {
				t.Fatalf("workers=%d step %d: occ sizes differ (%d vs %d)", workers, s, len(ro), len(po))
			}
			for i := range ro {
				if ro[i] != po[i] {
					t.Fatalf("workers=%d step %d: occ[%d] = %v vs %v", workers, s, i, ro[i], po[i])
				}
			}
		}
		rp, gp := ref.Packets(), got.Packets()
		if len(rp) != len(gp) {
			t.Fatalf("workers=%d: packet counts differ", workers)
		}
		for i := range rp {
			a, b := rp[i], gp[i]
			if a.DeliverStep != b.DeliverStep || a.Hops != b.Hops || a.At != b.At {
				t.Fatalf("workers=%d: packet %d diverged: unset (deliver=%d hops=%d at=%v) vs set (deliver=%d hops=%d at=%v)",
					workers, a.ID, a.DeliverStep, a.Hops, a.At, b.DeliverStep, b.Hops, b.At)
			}
		}
	}
}

// plainXY wraps greedyXY behind a type with only the Algorithm methods.
type plainXY struct{ g greedyXY }

func (a plainXY) Name() string                                     { return "plain-xy" }
func (a plainXY) InitNode(net *Network, n *Node)                   { a.g.InitNode(net, n) }
func (a plainXY) Schedule(net *Network, n *Node) [grid.NumDirs]int { return a.g.Schedule(net, n) }
func (a plainXY) Accept(net *Network, n *Node, offers []Offer, acc []bool) {
	a.g.Accept(net, n, offers, acc)
}
func (a plainXY) Update(net *Network, n *Node) { a.g.Update(net, n) }

// TestWorkersNonClonerFallsBackSerial: Workers > 1 with an algorithm that
// implements nothing beyond Algorithm runs serially through Run/RunPartial
// and matches the Workers-unset result exactly.
func TestWorkersNonClonerFallsBackSerial(t *testing.T) {
	ref := buildDynamic(t, 8, 2, 60, 0)
	got := buildDynamic(t, 8, 2, 60, 4)
	if _, err := ref.RunPartial(plainXY{}, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := got.RunPartial(plainXY{}, 200); err != nil {
		t.Fatal(err)
	}
	rp, gp := ref.Packets(), got.Packets()
	if len(rp) != len(gp) {
		t.Fatalf("packet counts differ: %d vs %d", len(rp), len(gp))
	}
	for i := range rp {
		if rp[i].DeliverStep != gp[i].DeliverStep || rp[i].Hops != gp[i].Hops {
			t.Fatalf("packet %d diverged with Workers=4", rp[i].ID)
		}
	}
}

// TestParallelSteadyStateStepAllocs pins the zero-allocation contract with
// Workers set: after warmup, a step with a nil sink and no injections must
// not allocate, exactly as with Workers unset.
func TestParallelSteadyStateStepAllocs(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		net := buildReversal(t, 16, 2, workers)
		alg := greedyXY{}
		for i := 0; i < 5; i++ { // warm scratch buffers
			if err := net.StepOnce(alg); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := net.StepOnce(alg); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("workers=%d: steady-state StepOnce allocates %.1f times per step, want 0", workers, avg)
		}
	}
}
