package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"meshroute"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
)

// cell is one scenario of a workload, held as the spec bytes a user
// would submit, so parsing is part of what the benchmark times.
type cell struct {
	name string
	spec []byte
	// stream sends the run's step records to a JSONL sink on io.Discard,
	// as a user recording metrics, or the service streaming a job's
	// events, would. Other cells run with no sink.
	stream bool
}

// newCell encodes a spec; online runs stream their step records.
func newCell(s scenario.Spec) cell {
	data, err := s.JSON()
	if err != nil {
		panic(fmt.Sprintf("encode spec %s: %v", s.Name, err)) // a bug: every field here is JSON-safe
	}
	return cell{name: s.Name, spec: data, stream: s.Workload.Kind == scenario.KindOnline}
}

// permCells are perm-static's one-shot permutations: Theorem 15's router
// on a random permutation, zigzag on a torus transpose, and the offline
// O(C+D) scheduled baseline with the congestion+dilation analysis on.
func permCells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	return []cell{
		newCell(scenario.Spec{Name: "thm15-mesh-random", N: 96, K: 2, Router: "thm15",
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: rng.Int63()}}),
		newCell(scenario.Spec{Name: "zigzag-torus-transpose", Topology: scenario.TopoTorus, N: 128, K: 2, Router: "zigzag",
			Workload: scenario.Workload{Kind: scenario.KindTranspose}}),
		newCell(scenario.Spec{Name: "scheduled-mesh-random", N: 64, K: 2, Router: "scheduled", Seed: rng.Uint64() | 1, Analysis: true,
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: rng.Int63()}}),
	}
}

// onlineCells are online-load's streaming runs: one below saturation
// under the drop policy, one overloaded hotspot under the retry policy.
func onlineCells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	return []cell{
		newCell(scenario.Spec{Name: "zigzag-bernoulli-drop", N: 64, K: 4, Router: "zigzag", Analysis: true,
			Workload: scenario.Workload{Kind: scenario.KindOnline, Seed: rng.Int63(), Horizon: 600, Rate: 0.02,
				Process: scenario.ProcessBernoulli, Admission: scenario.AdmissionDrop}}),
		newCell(scenario.Spec{Name: "zigzag-hotspot-retry", N: 64, K: 4, Router: "zigzag", Analysis: true,
			Workload: scenario.Workload{Kind: scenario.KindOnline, Seed: rng.Int63(), Horizon: 600, Rate: 0.05,
				Process: scenario.ProcessHotspot, Admission: scenario.AdmissionRetry}}),
	}
}

// buildCells parses and builds every cell, the set-up a run of them pays.
func buildCells(cells []cell) error {
	for _, c := range cells {
		s, err := scenario.Parse(c.spec)
		if err != nil {
			return err
		}
		if _, err := s.Build(); err != nil {
			return err
		}
	}
	return nil
}

// cellRun is the outcome of executing one cell.
type cellRun struct {
	setup, run time.Duration // Parse+Build, and RunBuilt
	alloc      uint64        // bytes allocated by RunBuilt
	stats      meshroute.RouteStats
	hops       int
}

// runCell parses, builds and runs one cell untraced at the given engine
// worker count, and checks the result.
func runCell(c cell, workers int) (cellRun, error) {
	t0 := time.Now()
	spec, err := scenario.Parse(c.spec)
	if err != nil {
		return cellRun{}, err
	}
	spec.Workers = workers
	run, err := spec.Build()
	if err != nil {
		return cellRun{}, err
	}
	t1 := time.Now()

	var runner scenario.Runner
	var tail tailSink
	var jsonl *obs.JSONL
	if c.stream {
		jsonl = obs.NewJSONL(io.Discard)
		runner.Sink = obs.Multi{jsonl, &tail}
	}
	a0 := totalAlloc()
	t2 := time.Now()
	res, err := runner.RunBuilt(context.Background(), run)
	t3 := time.Now()
	a1 := totalAlloc()
	if err != nil {
		return cellRun{}, err
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			return cellRun{}, err
		}
	}
	r := cellRun{setup: t1.Sub(t0), run: t3.Sub(t2), alloc: a1 - a0, stats: res.Stats, hops: res.Net.Metrics.TotalHops}
	return r, checkCell(spec, res, tail.last.Backlog)
}

// checkCell applies the output checks to one executed cell: a one-shot
// run delivers every packet; an online run conserves packets (offered =
// admitted + dropped + end backlog) and delivers no more than it
// admitted; an analysed one-shot run respects the universal lower bound
// max(C, D) ≤ makespan, and the scheduled router Rothvoß's 3·(C+D).
func checkCell(spec *scenario.Spec, res *scenario.Result, backlog int) error {
	st := res.Stats
	if res.Err != nil {
		return fmt.Errorf("%s: run aborted: %v", spec.Name, res.Err)
	}
	if spec.Workload.Kind == scenario.KindOnline {
		if st.Offered != st.Admitted+st.Dropped+backlog {
			return fmt.Errorf("%s: offered %d != admitted %d + dropped %d + backlog %d",
				spec.Name, st.Offered, st.Admitted, st.Dropped, backlog)
		}
		if st.Delivered > st.Admitted {
			return fmt.Errorf("%s: delivered %d > admitted %d", spec.Name, st.Delivered, st.Admitted)
		}
		return nil
	}
	if !st.Done || st.Delivered != st.Total {
		return fmt.Errorf("%s: delivered %d of %d (done=%v)", spec.Name, st.Delivered, st.Total, st.Done)
	}
	if st.Analyzed {
		if st.Makespan < max(st.Congestion, st.Dilation) {
			return fmt.Errorf("%s: makespan %d below max(C=%d, D=%d)", spec.Name, st.Makespan, st.Congestion, st.Dilation)
		}
		if spec.Router == meshroute.RouterScheduled && st.Makespan > 3*(st.Congestion+st.Dilation) {
			return fmt.Errorf("%s: makespan %d above 3·(C+D) = %d", spec.Name, st.Makespan, 3*(st.Congestion+st.Dilation))
		}
	}
	return nil
}

// sameStats reports a mismatch between a result and its reference.
func sameStats(what string, got, want meshroute.RouteStats) error {
	if got != want {
		return fmt.Errorf("%s: stats differ from the reference run:\n got  %+v\n want %+v", what, got, want)
	}
	return nil
}

// tailSink keeps the last step sample of a run.
type tailSink struct{ last obs.StepSample }

func (t *tailSink) Step(s obs.StepSample) { t.last = s }
func (t *tailSink) Span(obs.Span)         {}
