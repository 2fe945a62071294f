package sim

import (
	"testing"

	"meshroute/internal/grid"
)

// greedyXY is a minimal test algorithm: dimension order (row first), FIFO
// outqueue, accept-if-room inqueue. It exercises every engine code path
// without depending on the routers package.
type greedyXY struct{}

func (greedyXY) Name() string                   { return "test-greedy-xy" }
func (greedyXY) InitNode(net *Network, n *Node) {}
func (greedyXY) Update(net *Network, n *Node)   {}

func (greedyXY) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	taken := [grid.NumDirs]bool{}
	for i, p := range net.PacketsOf(n) {
		prof := net.Topo.Profitable(n.ID, net.P.Dst[p])
		// Dimension order: horizontal first.
		var want grid.Dir = grid.NoDir
		switch {
		case prof.Has(grid.East):
			want = grid.East
		case prof.Has(grid.West):
			want = grid.West
		case prof.Has(grid.North):
			want = grid.North
		case prof.Has(grid.South):
			want = grid.South
		}
		if want != grid.NoDir && !taken[want] {
			sched[want] = i
			taken[want] = true
		}
	}
	return sched
}

func (greedyXY) Accept(net *Network, n *Node, offers []Offer, acc []bool) {
	free := net.K - n.QueueLen(0)
	for i, o := range offers {
		if net.P.Dst[o.P] == n.ID {
			acc[i] = true // delivery consumes no space
			continue
		}
		if free > 0 {
			acc[i] = true
			free--
		}
	}
}

func newTestNet(t *testing.T, n, k int) *Network {
	t.Helper()
	return MustNew(Config{
		Topo:            grid.NewSquareMesh(n),
		K:               k,
		Queues:          CentralQueue,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
}

func TestSinglePacketStraightLine(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	p := net.NewPacket(m.ID(grid.XY(0, 3)), m.ID(grid.XY(5, 3)))
	net.MustPlace(p)
	steps, err := net.Run(greedyXY{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5 (distance)", steps)
	}
	if !net.P.Delivered(p) || net.P.DeliverStep[p] != 5 || net.P.Hops[p] != 5 {
		t.Fatalf("packet state %+v", net.PacketSnapshot(p))
	}
	if !net.Done() {
		t.Fatal("network must be done")
	}
}

func TestSinglePacketTurns(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	p := net.NewPacket(m.ID(grid.XY(1, 1)), m.ID(grid.XY(6, 7)))
	net.MustPlace(p)
	steps, err := net.Run(greedyXY{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Dist(net.P.Src[p], net.P.Dst[p])
	if steps != want {
		t.Fatalf("steps = %d, want %d", steps, want)
	}
}

func TestSelfDeliveredAtPlacement(t *testing.T) {
	net := newTestNet(t, 4, 1)
	p := net.NewPacket(5, 5)
	net.MustPlace(p)
	if !net.P.Delivered(p) || net.P.DeliverStep[p] != 0 {
		t.Fatalf("fixed-point packet must deliver at placement: %+v", net.PacketSnapshot(p))
	}
	if !net.Done() {
		t.Fatal("done expected")
	}
	steps, err := net.Run(greedyXY{}, 10)
	if err != nil || steps != 0 {
		t.Fatalf("run on done network: steps=%d err=%v", steps, err)
	}
}

func TestPlacementCapacityEnforced(t *testing.T) {
	net := newTestNet(t, 4, 1)
	net.MustPlace(net.NewPacket(0, 5))
	if err := net.Place(net.NewPacket(0, 6)); err == nil {
		t.Fatal("placing 2 packets in a k=1 central queue must fail")
	}
}

func TestFullReversalPermutationDelivers(t *testing.T) {
	const n = 8
	net := newTestNet(t, n, 4)
	m := net.Topo
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			src := m.ID(grid.XY(x, y))
			dst := m.ID(grid.XY(n-1-x, n-1-y))
			net.MustPlace(net.NewPacket(src, dst))
		}
	}
	steps, err := net.Run(greedyXY{}, 10*n*n)
	if err != nil {
		t.Fatal(err)
	}
	if net.DeliveredCount() != n*n {
		t.Fatalf("delivered %d/%d", net.DeliveredCount(), n*n)
	}
	if steps < 2*n-2 {
		t.Fatalf("reversal cannot beat diameter: %d < %d", steps, 2*n-2)
	}
	if net.Metrics.MaxQueueLen > 4 {
		t.Fatalf("capacity violated: %d", net.Metrics.MaxQueueLen)
	}
}

// Every packet in a permutation must take a minimal path: hops == distance.
func TestMinimalPathsHopsEqualDistance(t *testing.T) {
	const n = 6
	net := newTestNet(t, n, 3)
	m := net.Topo
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			src := m.ID(grid.XY(x, y))
			dst := m.ID(grid.XY((x+3)%n, (y+2)%n))
			net.MustPlace(net.NewPacket(src, dst))
		}
	}
	if _, err := net.Run(greedyXY{}, 1000); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Packets() {
		if p.Hops != m.Dist(p.Src, p.Dst) {
			t.Fatalf("packet %d hops %d != dist %d", p.ID, p.Hops, m.Dist(p.Src, p.Dst))
		}
	}
}

func TestExchangeHookSwapsDestinations(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	a := net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(4, 4)))
	b := net.NewPacket(m.ID(grid.XY(1, 1)), m.ID(grid.XY(5, 5)))
	net.MustPlace(a)
	net.MustPlace(b)
	swapped := false
	net.SetExchange(func(n *Network, step int, moves []Move) {
		if step == 1 && !swapped {
			n.P.Dst[a], n.P.Dst[b] = n.P.Dst[b], n.P.Dst[a]
			swapped = true
		}
	})
	if _, err := net.Run(greedyXY{}, 100); err != nil {
		t.Fatal(err)
	}
	if m.CoordOf(net.P.Dst[a]) != (grid.XY(5, 5)) || m.CoordOf(net.P.Dst[b]) != (grid.XY(4, 4)) {
		t.Fatal("exchange did not persist")
	}
	// Both packets start on the shared diagonal corridor; after the swap
	// each must still arrive at its (new) destination minimally.
	for _, p := range []PacketID{a, b} {
		if !net.P.Delivered(p) {
			t.Fatalf("packet %d undelivered", p.ID())
		}
	}
}

func TestRunPartialStopsWithoutError(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(7, 7))))
	steps, err := net.RunPartial(greedyXY{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 || net.Done() {
		t.Fatalf("partial run: steps=%d done=%v", steps, net.Done())
	}
	if _, err := net.Run(greedyXY{}, 100); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorsWhenOutOfSteps(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(7, 7))))
	if _, err := net.Run(greedyXY{}, 3); err == nil {
		t.Fatal("Run must error when step budget exhausted")
	}
}

// A non-minimal schedule must be rejected when RequireMinimal is set.
type badAlg struct{ greedyXY }

func (badAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	p := net.PacketsOf(n)[0]
	prof := net.Topo.Profitable(n.ID, net.P.Dst[p])
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if !prof.Has(d) {
			if _, ok := net.Topo.Neighbor(n.ID, d); ok {
				sched[d] = 0
				return sched
			}
		}
	}
	return sched
}

func TestRequireMinimalRejectsBadMove(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(3, 3)), m.ID(grid.XY(5, 5))))
	if err := net.StepOnce(badAlg{}); err == nil {
		t.Fatal("non-minimal move must be rejected")
	}
}

// Scheduling one packet on two outlinks must be rejected.
type doubleAlg struct{ greedyXY }

func (doubleAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	return [grid.NumDirs]int{0, 0, -1, -1} // same packet North and East
}

func TestDoubleScheduleRejected(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(3, 3)), m.ID(grid.XY(5, 5))))
	if err := net.StepOnce(doubleAlg{}); err == nil {
		t.Fatal("double-scheduled packet must be rejected")
	}
}

func TestInjectionWaitsForRoom(t *testing.T) {
	net := newTestNet(t, 8, 1)
	m := net.Topo
	src := m.ID(grid.XY(0, 0))
	// Occupy the k=1 queue with a resident packet that cannot move North
	// or East quickly... actually it can; use injections only.
	p1 := net.NewPacket(src, m.ID(grid.XY(3, 0)))
	p2 := net.NewPacket(src, m.ID(grid.XY(0, 3)))
	net.QueueInjection(p1, 1)
	net.QueueInjection(p2, 1)
	if _, err := net.Run(greedyXY{}, 100); err != nil {
		t.Fatal(err)
	}
	if !net.P.Delivered(p1) || !net.P.Delivered(p2) {
		t.Fatal("both injected packets must deliver")
	}
	if net.P.InjectStep[p2] <= net.P.InjectStep[p1] {
		t.Fatalf("k=1: second injection must wait (inject steps %d, %d)", net.P.InjectStep[p1], net.P.InjectStep[p2])
	}
}

func TestMetricsBasics(t *testing.T) {
	net := newTestNet(t, 8, 4)
	net.Metrics.RecordHistory()
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(3, 0))))
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 1)), m.ID(grid.XY(0, 5))))
	if _, err := net.Run(greedyXY{}, 100); err != nil {
		t.Fatal(err)
	}
	if net.Metrics.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", net.Metrics.Makespan)
	}
	if net.Metrics.TotalHops != 7 {
		t.Fatalf("hops = %d, want 7", net.Metrics.TotalHops)
	}
	if got := net.AvgDelay(); got != 3.5 {
		t.Fatalf("avg delay = %v, want 3.5", got)
	}
	sum := 0
	for _, c := range net.Metrics.DeliveredAtStep {
		sum += c
	}
	if sum != 2 {
		t.Fatalf("history delivered sum = %d, want 2", sum)
	}
}

func TestPerInlinkQueueTags(t *testing.T) {
	net := MustNew(Config{
		Topo:            grid.NewSquareMesh(8),
		K:               1,
		Queues:          PerInlinkQueues,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
	m := net.Topo
	p := net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(2, 0)))
	net.MustPlace(p)
	if net.P.QTag[p] != OriginTag {
		t.Fatalf("origin tag = %d", net.P.QTag[p])
	}
	if err := net.StepOnce(greedyXY{}); err != nil {
		t.Fatal(err)
	}
	// Travelling East, the packet arrives in the West queue of (1,0).
	if net.P.QTag[p] != uint8(grid.West) {
		t.Fatalf("after eastward hop, tag = %d, want West", net.P.QTag[p])
	}
	node := net.Node(m.ID(grid.XY(1, 0)))
	if node.QueueLen(uint8(grid.West)) != 1 || node.NetworkLen() != 1 {
		t.Fatal("queue accounting wrong")
	}
}

func TestOccupiedTracking(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(1, 0))))
	if len(net.Occupied()) != 1 {
		t.Fatal("one occupied node expected")
	}
	if _, err := net.Run(greedyXY{}, 10); err != nil {
		t.Fatal(err)
	}
	if len(net.Occupied()) != 0 {
		t.Fatal("no occupied nodes after delivery")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		const n = 8
		net := newTestNet(t, n, 4)
		m := net.Topo
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				// Transpose-and-shift: a true permutation.
				net.MustPlace(net.NewPacket(m.ID(grid.XY(x, y)), m.ID(grid.XY(y, (x+1)%n))))
			}
		}
		if _, err := net.Run(greedyXY{}, 10000); err != nil {
			t.Fatal(err)
		}
		out := make([]int, 0, n*n)
		for _, p := range net.Packets() {
			out = append(out, p.DeliverStep)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic delivery at packet %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// buildReversal fills an n×n mesh with the reversal permutation: node i
// sends one packet to node n²-1-i (skipping fixed points).
func buildReversal(tb testing.TB, n, k, workers int) *Network {
	tb.Helper()
	net := MustNew(Config{
		Topo:           grid.NewSquareMesh(n),
		K:              k,
		Queues:         CentralQueue,
		RequireMinimal: true,
		Workers:        workers,
	})
	total := n * n
	for i := 0; i < total; i++ {
		j := total - 1 - i
		if i == j {
			continue
		}
		net.MustPlace(net.NewPacket(grid.NodeID(i), grid.NodeID(j)))
	}
	return net
}

// buildDynamic builds a mesh with a deterministic arithmetic injection
// pattern, exercising the backlog path.
func buildDynamic(tb testing.TB, n, k, horizon, workers int) *Network {
	tb.Helper()
	net := MustNew(Config{
		Topo:           grid.NewSquareMesh(n),
		K:              k,
		Queues:         CentralQueue,
		RequireMinimal: true,
		Workers:        workers,
	})
	for step := 1; step <= horizon/2; step++ {
		for id := 0; id < n*n; id++ {
			if (id+step)%5 == 0 {
				dst := grid.NodeID((id*17 + step*23) % (n * n))
				net.QueueInjection(net.NewPacket(grid.NodeID(id), dst), step)
			}
		}
	}
	return net
}

// TestOccupiedOrderDeterminism pins the determinism contract documented on
// the occ field: two identical runs observe the identical (insertion-
// ordered, not sorted) Occupied() sequence after every step.
func TestOccupiedOrderDeterminism(t *testing.T) {
	const n, k, steps = 10, 2, 80
	a := buildDynamic(t, n, k, steps, 0)
	b := buildDynamic(t, n, k, steps, 0)
	sorted := true
	for s := 0; s < steps && !(a.Done() && b.Done()); s++ {
		if err := a.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
		if err := b.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
		ao, bo := a.Occupied(), b.Occupied()
		if len(ao) != len(bo) {
			t.Fatalf("step %d: occupied sizes differ", s)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("step %d: Occupied()[%d] differs between identical runs: %v vs %v", s, i, ao[i], bo[i])
			}
			if i > 0 && ao[i] < ao[i-1] {
				sorted = false
			}
		}
	}
	// The contract is insertion order, not sortedness; with dynamic
	// injection the list goes unsorted, which is what the documentation
	// now states. Guard against silently reverting to a sorted list.
	if sorted {
		t.Log("note: occupied list stayed sorted this run (contract only requires determinism)")
	}
}

// TestSteadyStateStepAllocs pins the zero-allocation hot path: after
// warmup, a step with a nil sink and no injections must not allocate.
func TestSteadyStateStepAllocs(t *testing.T) {
	net := buildReversal(t, 16, 2, 0)
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
		t.Fatalf("steady-state StepOnce allocates %.1f times per step, want 0", avg)
	}
}
