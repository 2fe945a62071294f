package routers

import (
	"testing"

	"meshroute/internal/analysis"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// scheduledCDBound is the pinned constant c for the offline baseline's
// makespan ≤ c·(C+D) guarantee on the workloads below (the Rothvoß
// schedule is O(C+D); this is the observed constant with headroom, and a
// regression that slows the replay past it fails here).
const scheduledCDBound = 3

func runScheduled(t *testing.T, topo grid.Topology, k int, perm *workload.Permutation, maxSteps int) (*sim.Network, *Scheduled) {
	t.Helper()
	net := sim.MustNew(sim.Config{
		Topo: topo, K: k, Queues: sim.CentralQueue,
		RequireMinimal: true, CheckInvariants: true,
	})
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	alg := NewScheduled(0)
	if _, err := net.Run(alg, maxSteps); err != nil {
		t.Fatal(err)
	}
	return net, alg
}

// TestScheduledRoutesWithinCDBound routes structured and random
// workloads to completion and asserts the O(C+D) contract: makespan at
// most scheduledCDBound·(C+D), minimal paths, queues within k.
func TestScheduledRoutesWithinCDBound(t *testing.T) {
	type tc struct {
		name string
		topo grid.Topology
		perm *workload.Permutation
	}
	var cases []tc
	for _, n := range []int{4, 8, 12} {
		mesh := grid.NewSquareMesh(n)
		cases = append(cases,
			tc{name: "transpose", topo: mesh, perm: workload.Transpose(mesh)},
			tc{name: "reversal", topo: mesh, perm: workload.Reversal(mesh)},
		)
		for seed := int64(0); seed < 3; seed++ {
			cases = append(cases, tc{name: "random", topo: mesh, perm: workload.Random(mesh, seed)})
		}
		torus := grid.NewSquareTorus(n)
		cases = append(cases, tc{name: "torus-random", topo: torus, perm: workload.Random(torus, 9)})
	}
	for _, c := range cases {
		for _, k := range []int{2, 4} {
			n := c.topo.Width()
			net, alg := runScheduled(t, c.topo, k, c.perm, 50*n*n)
			for _, p := range net.Packets() {
				if want := net.Topo.Dist(p.Src, p.Dst); p.Hops != want {
					t.Fatalf("%s n=%d k=%d: packet %d took %d hops, minimal is %d", c.name, n, k, p.ID, p.Hops, want)
				}
			}
			if net.Metrics.MaxQueueLen > k {
				t.Fatalf("%s n=%d k=%d: queue %d > k", c.name, n, k, net.Metrics.MaxQueueLen)
			}
			res := alg.Result()
			if cd := res.CD(); net.Metrics.Makespan > scheduledCDBound*cd {
				t.Fatalf("%s n=%d k=%d: makespan %d > %d·(C+D)=%d (C=%d D=%d)",
					c.name, n, k, net.Metrics.Makespan, scheduledCDBound, scheduledCDBound*cd, res.Congestion, res.Dilation)
			}
			if net.Metrics.Makespan < res.Dilation {
				t.Fatalf("%s n=%d k=%d: makespan %d below dilation %d — impossible", c.name, n, k, net.Metrics.Makespan, res.Dilation)
			}
		}
	}
}

// TestScheduledMatchesAnalyze asserts the router's precomputed system is
// exactly the analysis package's canonical system (same demands, same
// deterministic construction — the phased system it replays), and that
// its dilation agrees with the greedy-improved Analyze result (greedy
// rewrites never change path lengths).
func TestScheduledMatchesAnalyze(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	perm := workload.Transpose(topo)
	net, alg := runScheduled(t, topo, 2, perm, 5000)
	_ = net
	demands := make([]analysis.Demand, len(perm.Pairs))
	for i, pr := range perm.Pairs {
		demands[i] = analysis.Demand{Src: pr.Src, Dst: pr.Dst}
	}
	want := analysis.AnalyzeCanonical(topo, demands).Result()
	if got := alg.Result(); got != want {
		t.Fatalf("router system C=%d D=%d != canonical C=%d D=%d",
			got.Congestion, got.Dilation, want.Congestion, want.Dilation)
	}
	improved := analysis.Analyze(topo, demands).Result()
	if improved.Dilation != want.Dilation {
		t.Fatalf("greedy dilation %d != canonical %d", improved.Dilation, want.Dilation)
	}
	if improved.Congestion > want.Congestion {
		t.Fatalf("greedy congestion %d > canonical %d", improved.Congestion, want.Congestion)
	}
}

// TestScheduledSeedsDiffer sanity-checks that the delay seed matters
// (different seeds may change per-packet delivery steps) while every
// seed still meets the C+D bound.
func TestScheduledSeedsDiffer(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	for seed := uint64(0); seed < 3; seed++ {
		net := sim.MustNew(sim.Config{
			Topo: topo, K: 2, Queues: sim.CentralQueue,
			RequireMinimal: true, CheckInvariants: true,
		})
		perm := workload.Random(topo, 3)
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		alg := NewScheduled(seed)
		if _, err := net.Run(alg, 5000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cd := alg.Result().CD(); net.Metrics.Makespan > scheduledCDBound*cd {
			t.Fatalf("seed %d: makespan %d > %d·(C+D)", seed, net.Metrics.Makespan, scheduledCDBound)
		}
	}
}

// TestScheduledParallelEquivalence pins that the deprecated Workers field
// is ignored: runs with Workers 2/4/8 reproduce the Workers-unset outcome
// packet for packet.
func TestScheduledParallelEquivalence(t *testing.T) {
	topo := grid.NewSquareMesh(12)
	perm := workload.Random(topo, 11)
	outcome := func(workers int) [][3]int {
		net := sim.MustNew(sim.Config{
			Topo: topo, K: 2, Queues: sim.CentralQueue,
			RequireMinimal: true, CheckInvariants: true, Workers: workers,
		})
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(NewScheduled(0), 20000); err != nil {
			t.Fatal(err)
		}
		var out [][3]int
		for _, p := range net.Packets() {
			out = append(out, [3]int{int(p.ID), p.DeliverStep, p.Hops})
		}
		return out
	}
	serial := outcome(0)
	for _, w := range []int{2, 4, 8} {
		got := outcome(w)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d packets != serial %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: packet %d outcome %v != serial %v", w, i, got[i], serial[i])
			}
		}
	}
}
