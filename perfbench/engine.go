package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"meshroute"
	"meshroute/internal/scenario"
)

// permStatic runs one-shot permutations serially with no sink: the step
// loop and the router policies do nearly all the work.
func permStatic(cfg config, rep *report) error {
	return engineWorkload(cfg, rep, permCells(cfg.seed), true)
}

// onlineLoad runs streaming arrivals with the admission-time analysis and
// a JSONL sink, so admission, sources, the accumulator and obs carry a
// real share of the time.
func onlineLoad(cfg config, rep *report) error {
	return engineWorkload(cfg, rep, onlineCells(cfg.seed), false)
}

// engineWorkload runs the cells serially, pass after pass, for the
// measured window. Every run is checked, and every pass after the first
// must reproduce the first pass's statistics. With cfg.traced it then
// re-runs the cells at two engine workers (when w2 is set) and traced.
func engineWorkload(cfg config, rep *report, cells []cell, w2 bool) error {
	heap, err := builtHeap(cells)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := buildCells(cells); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ref := make([]cellRun, len(cells))
	perCell := make([][]float64, len(cells))
	var runs, allocs, nsPerHop []float64
	var jobs [][]float64
	_, err = repeat(cfg.measured(), minPasses, func() error {
		first := runs == nil
		var run time.Duration
		var latency []float64
		var alloc uint64
		hops := 0
		for i, c := range cells {
			cr, err := runCell(c, 0)
			if first {
				ref[i] = cr
			} else if err == nil {
				err = sameRun(c.name, cr, ref[i])
			}
			rep.op(c.name, err)
			run += cr.run
			alloc += cr.alloc
			hops += cr.hops
			latency = append(latency, ms(cr.setup+cr.run))
			perCell[i] = append(perCell[i], cr.run.Seconds())
		}
		runs = append(runs, run.Seconds())
		jobs = append(jobs, latency)
		allocs = append(allocs, mb(alloc))
		nsPerHop = append(nsPerHop, float64(run.Nanoseconds())/float64(max(hops, 1)))
		return nil
	})
	if err != nil {
		return err
	}
	for i, c := range cells {
		fmt.Fprintf(os.Stderr, "cell %-24s run %.4f s (median of %d), makespan %d, %d hops\n",
			c.name, median(perCell[i]), len(perCell[i]), ref[i].stats.Makespan, ref[i].hops)
	}
	rep.set("setup_s", median(setups))
	rep.set("run_s", median(runs))
	rep.set("ns_per_hop", median(nsPerHop))
	rep.set("job_p50_ms", passQuantile(jobs, 0.50))
	rep.set("job_p95_ms", passQuantile(jobs, 0.95))
	rep.set("alloc_mb", median(allocs))
	rep.set("heap_mb", heap)
	setSimulated(rep, ref)
	if !cfg.traced {
		return nil
	}

	if w2 {
		// The same cells on the intra-step parallel pipeline, untraced;
		// its results must be bit-identical to the serial runs.
		var w2runs []float64
		for p := 0; p < 2; p++ {
			var run time.Duration
			for i, c := range cells {
				cr, err := runCell(c, 2)
				if err == nil {
					err = sameRun(c.name+" at 2 workers", cr, ref[i])
				}
				rep.op(c.name+" at 2 workers", err)
				run += cr.run
			}
			w2runs = append(w2runs, run.Seconds())
		}
		rep.set("sim.w2_speedup", median(runs)/median(w2runs))
	}

	tr := &tracer{}
	var traced []float64
	passes, err := repeat(cfg.window/2, 1, func() error {
		var run time.Duration
		for i, c := range cells {
			cr, err := tr.runCell(c)
			if err == nil {
				err = sameRun(c.name+" traced", cr, ref[i])
			}
			rep.op(c.name+" traced", err)
			run += cr.run
		}
		traced = append(traced, run.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	tr.set(rep, passes)
	rep.set("trace.overhead", median(traced)/median(runs))
	return nil
}

// sameRun checks a re-run against its reference run.
func sameRun(what string, got, want cellRun) error {
	if got.hops != want.hops {
		return fmt.Errorf("%s: %d hops, reference run made %d", what, got.hops, want.hops)
	}
	return sameStats(what, got.stats, want.stats)
}

// setSimulated reports the simulated (exact, host-independent) counts of
// one pass: link traversals, the admission totals, delay percentiles of
// the worst cell, and the largest makespan/(C+D).
func setSimulated(rep *report, runs []cellRun) {
	var hops, offered, admitted, refused int
	var throughput, p50, p99, cd float64
	for _, r := range runs {
		st := r.stats
		hops += r.hops
		offered += st.Offered
		admitted += st.Admitted
		refused += st.Refused
		throughput += st.Throughput
		p50 = max(p50, st.DelayP50)
		p99 = max(p99, st.DelayP99)
		cd = max(cd, st.CDRatio)
	}
	rep.set("sim.hops", float64(hops))
	rep.set("admission.offered", float64(offered))
	rep.set("admission.admitted", float64(admitted))
	rep.set("admission.refused", float64(refused))
	rep.set("admission.refusal_rate", meshroute.RouteStats{Admitted: admitted, Refused: refused}.RefusalRate())
	rep.set("admission.throughput", throughput)
	rep.set("admission.delay_p50_steps", p50)
	rep.set("admission.delay_p99_steps", p99)
	rep.set("analysis.cd_ratio", cd)
}

// builtHeap returns the largest live-heap growth, in MB, that building
// one of the cells causes: the footprint of a ready network.
func builtHeap(cells []cell) (float64, error) {
	peak := 0.0
	for _, c := range cells {
		base := liveHeap()
		spec, err := scenario.Parse(c.spec)
		if err != nil {
			return 0, err
		}
		run, err := spec.Build()
		if err != nil {
			return 0, err
		}
		grown := int64(liveHeap()) - int64(base)
		runtime.KeepAlive(run)
		if grown <= 0 {
			return 0, errors.New(c.name + ": building it grew no heap")
		}
		peak = max(peak, float64(grown)/1e6)
	}
	return peak, nil
}
