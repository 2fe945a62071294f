package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"meshroute/internal/fleet"
	"meshroute/internal/par"
	"meshroute/internal/scenario"
)

// sweepWorkers is the cell fan-out of both sweeps: the in-process
// Runner's worker count, and the number of 1-slot fleet workers.
const sweepWorkers = 2

// sweepCells are mid-size one-shot cells of similar cost that all
// complete, alternating two routers.
func sweepCells(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	var cells []cell
	for i, router := range []string{"thm15", "dimorder", "thm15", "dimorder", "thm15", "dimorder"} {
		cells = append(cells, newCell(scenario.Spec{Name: fmt.Sprintf("sweep-%d-%s", i, router), N: 80, K: 2, Router: router,
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: rng.Int63()}}))
	}
	return cells
}

// sweep runs the same cells through Runner.Sweep and through a fleet
// coordinator dispatching to two in-process 1-slot workers over
// loopback, pass after pass, and checks that both agree.
func sweep(cfg config, rep *report) error {
	cells := sweepCells(cfg.seed)
	specs := make([]*scenario.Spec, len(cells))
	for i, c := range cells {
		s, err := scenario.Parse(c.spec)
		if err != nil {
			return err
		}
		specs[i] = s
	}
	heap, err := builtHeap(cells)
	if err != nil {
		return err
	}

	// Set-up is spec bytes to ready networks for every cell, plus
	// starting and registering the fleet workers.
	var setups []float64
	var fl *liveFleet
	for i := 0; i < setupReps; i++ {
		if fl != nil {
			fl.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := buildCells(cells); err != nil {
			return err
		}
		fl = startFleet()
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fl.close()

	ref := make([]cellRun, len(cells))
	var runs, fleets, allocs, nsPerHop, cellTimes []float64
	var jobs [][]float64
	ctx := context.Background()
	_, err = repeat(cfg.measured(), minPasses, func() error {
		first := runs == nil
		a0 := totalAlloc()
		t0 := time.Now()
		results, err := (&scenario.Runner{Workers: sweepWorkers}).Sweep(ctx, specs)
		local := time.Since(t0)
		if err != nil {
			return err
		}

		type dispatched struct {
			res      *fleet.CellResult
			err      error
			took, at time.Duration
		}
		t1 := time.Now()
		// Each cell's error is kept in its result, so Map has none to return.
		remote, _ := par.Map(len(specs), sweepWorkers, func(i int) (dispatched, error) {
			c0 := time.Now()
			res, err := fl.coord.Execute(ctx, specs[i])
			return dispatched{res: res, err: err, took: time.Since(c0), at: time.Since(t1)}, nil
		})
		remoteWall := time.Since(t1)
		alloc := totalAlloc() - a0

		hops := 0
		var latency []float64
		for i, res := range results {
			cr := cellRun{stats: res.Stats, hops: res.Net.Metrics.TotalHops}
			err := checkCell(specs[i], res, 0)
			if first {
				ref[i] = cr
			} else if err == nil {
				err = sameRun(cells[i].name, cr, ref[i])
			}
			rep.op(cells[i].name, err)
			hops += cr.hops

			d := remote[i]
			if d.err == nil && d.res.Error != "" {
				d.err = fmt.Errorf("run aborted on worker %s: %s", d.res.Worker, d.res.Error)
			}
			if d.err == nil {
				d.err = sameStats(cells[i].name+" on the fleet", d.res.Stats.RouteStats(), res.Stats)
			}
			rep.op(cells[i].name+" on the fleet", d.err)
			at := ms(d.at)
			if d.err != nil {
				at = failedLatency
			}
			latency = append(latency, at)
			cellTimes = append(cellTimes, ms(d.took))
		}
		runs = append(runs, local.Seconds())
		jobs = append(jobs, latency)
		fleets = append(fleets, remoteWall.Seconds())
		allocs = append(allocs, mb(alloc))
		nsPerHop = append(nsPerHop, float64(local.Nanoseconds())/float64(max(hops, 1)))
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setups))
	rep.set("run_s", median(runs))
	rep.set("ns_per_hop", median(nsPerHop))
	rep.set("job_p50_ms", passQuantile(jobs, 0.50))
	rep.set("job_p95_ms", passQuantile(jobs, 0.95))
	rep.set("alloc_mb", median(allocs))
	rep.set("heap_mb", heap)
	rep.set("fleet_s", median(fleets))
	rep.set("fleet.cell_p50_ms", quantile(cellTimes, 0.50))
	rep.set("fleet.retries", float64(fl.coord.Stats().Retries))
	rep.set("fleet.vs_local", median(fleets)/median(runs))
	setSimulated(rep, ref)
	if !cfg.traced {
		return nil
	}

	// One serial pass gives the cells' summed cost, the numerator of the
	// in-process sweep's parallel efficiency.
	var serial, serialRun time.Duration
	for i, c := range cells {
		cr, err := runCell(c, 0)
		if err == nil {
			err = sameRun(c.name+" serial", cr, ref[i])
		}
		rep.op(c.name+" serial", err)
		serial += cr.setup + cr.run
		serialRun += cr.run
	}
	rep.set("par.sweep_efficiency", serial.Seconds()/(median(runs)*sweepWorkers))

	tr := &tracer{}
	passes, err := repeat(cfg.window/2, 1, func() error {
		for i, c := range cells {
			cr, err := tr.runCell(c)
			if err == nil {
				err = sameRun(c.name+" traced", cr, ref[i])
			}
			rep.op(c.name+" traced", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.set(rep, passes)
	rep.set("trace.overhead", tr.run.Seconds()/float64(passes)/serialRun.Seconds())
	return nil
}

// liveFleet is a coordinator with two 1-slot workers on loopback
// listeners.
type liveFleet struct {
	workers []*httptest.Server
	client  *http.Client
	coord   *fleet.Coordinator
}

// startFleet starts the workers and registers them once. The workers
// live in this process and cannot go quiet, so the heartbeat timeout is
// set past any run instead of running announce loops.
func startFleet() *liveFleet {
	f := &liveFleet{client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	f.coord = fleet.NewCoordinator(fleet.Config{Client: f.client, HeartbeatTimeout: time.Hour})
	for i := 0; i < sweepWorkers; i++ {
		ts := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{Slots: 1}).Handler())
		f.workers = append(f.workers, ts)
		f.coord.Register(ts.URL)
	}
	return f
}

func (f *liveFleet) close() {
	for _, ts := range f.workers {
		ts.Close()
	}
	f.client.CloseIdleConnections()
}
