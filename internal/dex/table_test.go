package dex

import (
	"fmt"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// TestTableMatchesTopology checks the packed node table against the
// topology it replaces, exhaustively: every node's coordinate and outlinks,
// and the profitable set of every (from, dst) pair. Odd and even sides
// cover both torus cases (one shortest way around, or a tie where both
// directions are profitable).
func TestTableMatchesTopology(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 5}, {4, 4}, {5, 7}, {6, 3}}
	for _, sz := range sizes {
		for _, topo := range []grid.Topology{grid.NewMesh(sz[0], sz[1]), grid.NewTorus(sz[0], sz[1])} {
			name := fmt.Sprintf("mesh%dx%d", sz[0], sz[1])
			if topo.Wraparound() {
				name = fmt.Sprintf("torus%dx%d", sz[0], sz[1])
			}
			t.Run(name, func(t *testing.T) {
				var tb table
				tb.build(sim.MustNew(sim.Config{Topo: topo, K: 1}))
				for from := grid.NodeID(0); int(from) < topo.N(); from++ {
					xy := tb.xy[from]
					if got, want := tb.coord(xy), topo.CoordOf(from); got != want {
						t.Fatalf("node %d: coord %v, want %v", from, got, want)
					}
					var want grid.DirSet
					for d := grid.Dir(0); d < grid.NumDirs; d++ {
						if _, ok := topo.Neighbor(from, d); ok {
							want = want.Set(d)
						}
					}
					if got := tb.outlinks(xy); got != want {
						t.Fatalf("node %v: outlinks %v, want %v", topo.CoordOf(from), got, want)
					}
					for dst := grid.NodeID(0); int(dst) < topo.N(); dst++ {
						if got, want := tb.profitable(xy, dst), topo.Profitable(from, dst); got != want {
							t.Fatalf("%v -> %v: profitable %v, want %v",
								topo.CoordOf(from), topo.CoordOf(dst), got, want)
						}
					}
				}
			})
		}
	}
}
