package scenario

import (
	"context"
	"fmt"
	"os"

	"meshroute"
	"meshroute/internal/obs"
	"meshroute/internal/par"
	"meshroute/internal/sim"
	"meshroute/internal/stats"
	"meshroute/internal/trace"
)

// Result is the outcome of executing one scenario. Run-level aborts
// (livelock, cancellation, invariant violations) land in Err with Net and
// Stats still populated, so callers can report partial progress and
// diagnostics; an exhausted step budget is not an abort — it shows up as
// Stats.Done == false, matching RunPartial. Only setup failures prevent a
// Result.
type Result struct {
	// Spec is the executed spec.
	Spec *Spec
	// Net is the network after the run (partial state if Err != nil).
	Net *sim.Network
	// Steps is the number of steps executed.
	Steps int
	// Stats summarizes the run.
	Stats meshroute.RouteStats
	// Err is the run-level abort, if any: *sim.LivelockError,
	// *sim.CanceledError, or an invariant violation.
	Err error
	// StepSamples and Spans count the metrics records written to
	// Spec.MetricsOut (0 when no sink was configured).
	StepSamples, Spans int
}

// Canceled reports whether the run was stopped by context cancellation.
func (r *Result) Canceled() bool {
	_, ok := r.Err.(*sim.CanceledError)
	return ok
}

// Runner executes built scenarios. The zero value is ready to use.
type Runner struct {
	// Workers bounds Sweep's cross-scenario fan-out (0 = GOMAXPROCS).
	Workers int
	// StepHook, when set, runs after every engine step (visualization
	// snapshots, custom progress reporting). Setting it moves the run
	// onto the instrumented step-by-step path.
	StepHook func(net *sim.Network, step int)
	// Sink, when set, receives every executed run's step samples, spans
	// and fault events, in addition to any Spec.MetricsOut file sink.
	// Sweep executes scenarios concurrently, so a Sink shared across a
	// sweep must be safe for concurrent use (obs.Counters is; obs.Memory
	// is not).
	Sink obs.Sink
}

// Run builds and executes one spec. See RunBuilt for the error contract.
func (r *Runner) Run(ctx context.Context, s *Spec) (*Result, error) {
	run, err := s.Build()
	if err != nil {
		return nil, err
	}
	return r.RunBuilt(ctx, run)
}

// RunBuilt executes an already-built scenario under the context:
// cancellation is honored between steps and surfaces as a
// *sim.CanceledError in Result.Err. The returned error is non-nil only
// for setup problems (unwritable output files); run-level aborts are
// reported via Result.Err so partial statistics stay available.
func (r *Runner) RunBuilt(ctx context.Context, run *Run) (*Result, error) {
	net, s := run.Net, run.Spec

	var sink *obs.JSONL
	var sinkOut *os.File
	if s.MetricsOut != "" {
		f, err := os.Create(s.MetricsOut)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.describe(), err)
		}
		sinkOut = f
		sink = obs.NewJSONL(f)
	}
	switch {
	case sink != nil && r.Sink != nil:
		net.SetMetricsSink(obs.Multi{sink, r.Sink})
	case sink != nil:
		net.SetMetricsSink(sink)
	case r.Sink != nil:
		net.SetMetricsSink(r.Sink)
	}
	var rec *trace.Recorder
	var traceOut *os.File
	if s.TraceOut != "" {
		f, err := os.Create(s.TraceOut)
		if err != nil {
			if sinkOut != nil {
				sinkOut.Close()
			}
			return nil, fmt.Errorf("scenario %s: %w", s.describe(), err)
		}
		traceOut = f
		rec = trace.NewRecorder(f)
		rec.Attach(net)
	}

	alg := run.NewAlg()
	var steps int
	var runErr error
	if !run.Exact && r.StepHook == nil {
		steps, runErr = net.RunPartialContext(ctx, alg, run.Budget)
	} else {
		steps, runErr = r.stepLoop(ctx, run, alg)
	}

	res := &Result{
		Spec:  s,
		Net:   net,
		Steps: steps,
		Err:   runErr,
		Stats: meshroute.RouteStats{
			Makespan:   net.Metrics.Makespan,
			Steps:      steps,
			Done:       net.Done(),
			Delivered:  net.DeliveredCount(),
			Total:      net.TotalPackets(),
			MaxQueue:   net.Metrics.MaxQueueLen,
			AvgDelay:   net.AvgDelay(),
			FaultDrops: net.Metrics.FaultDrops,
		},
	}
	if net.OpenWorkload() {
		st := &res.Stats
		st.Online = true
		st.Offered = net.Metrics.Offered
		st.Admitted = net.Metrics.Admitted
		st.Refused = net.Metrics.Refused
		st.Dropped = net.Metrics.Dropped
		if steps > 0 {
			st.Throughput = float64(st.Delivered) / float64(steps)
		}
		// Time-in-system percentiles over delivered packets. Only open
		// workloads pay for the packet scan; static runs report zeros.
		delays := make([]float64, 0, st.Delivered)
		for _, p := range net.Packets() {
			if p.DeliverStep >= 0 {
				delays = append(delays, float64(p.DeliverStep-p.InjectStep))
			}
		}
		qs := stats.Quantiles(delays, 0.50, 0.95, 0.99)
		st.DelayP50, st.DelayP95, st.DelayP99 = qs[0], qs[1], qs[2]
	}
	if run.Analysis != nil {
		ar := run.Analysis()
		st := &res.Stats
		st.Analyzed = true
		st.Congestion, st.Dilation = ar.Congestion, ar.Dilation
		st.CDRatio = ar.Ratio(st.Makespan)
		summary := obs.RunSummary{
			Scenario:   s.Name,
			Router:     s.Router,
			Makespan:   st.Makespan,
			Congestion: ar.Congestion,
			Dilation:   ar.Dilation,
			CDRatio:    st.CDRatio,
		}
		if sink != nil {
			sink.Run(summary)
		}
		if rs, ok := r.Sink.(obs.RunSink); ok {
			rs.Run(summary)
		}
	}

	if rec != nil {
		if err := rec.Close(); err != nil {
			return nil, err
		}
		if err := traceOut.Close(); err != nil {
			return nil, err
		}
	}
	if sink != nil {
		res.StepSamples, res.Spans = sink.StepCount(), sink.SpanCount()
		if err := sink.Close(); err != nil {
			return nil, err
		}
		if err := sinkOut.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// stepLoop is the instrumented path: one StepOnce per iteration with the
// context checked, the hook invoked, and the watchdog enforced between
// steps. Exact runs execute precisely Budget steps (dynamic workloads keep
// injecting over their horizon, so Done() mid-run is not termination);
// non-exact runs stop at delivery like RunPartial.
func (r *Runner) stepLoop(ctx context.Context, run *Run, alg sim.Algorithm) (int, error) {
	net := run.Net
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	lastProg, lastCount := net.Step(), net.DeliveredCount()
	for step := 0; step < run.Budget; step++ {
		if !run.Exact && net.Done() {
			return step, nil
		}
		if cancel != nil {
			select {
			case <-cancel:
				return step, &sim.CanceledError{
					Alg: alg.Name(), Steps: step, Cause: ctx.Err(), Diag: net.CollectDiagnostics(),
				}
			default:
			}
		}
		if err := net.StepOnce(alg); err != nil {
			return step + 1, err
		}
		if r.StepHook != nil {
			r.StepHook(net, net.Step())
		}
		if c := net.DeliveredCount(); c > lastCount {
			lastCount, lastProg = c, net.Step()
		}
		if w := run.Spec.Watchdog; w > 0 && net.Step()-lastProg >= w && !net.Done() {
			return step + 1, &sim.LivelockError{Alg: alg.Name(), Window: w, Diag: net.CollectDiagnostics()}
		}
	}
	return run.Budget, nil
}

// Sweep builds and executes the specs on a bounded worker pool (Workers
// wide) and returns results in input order. Cells that had not started
// when the context was canceled come back nil; cells interrupted mid-run
// carry a *sim.CanceledError in their Result.Err. The returned error
// reports the first (lowest-index) setup failure, wrapped with the
// offending spec's index and label so a failed cell in a large batch is
// attributable; the underlying cause (e.g. *ValidationError) stays
// reachable through errors.As. Cancellation itself is not an error, so
// callers can print the partial table.
func (r *Runner) Sweep(ctx context.Context, specs []*Spec) ([]*Result, error) {
	return par.Map(len(specs), r.Workers, func(i int) (*Result, error) {
		if ctx != nil && ctx.Err() != nil {
			return nil, nil
		}
		res, err := r.Run(ctx, specs[i])
		if err != nil {
			return nil, fmt.Errorf("sweep spec %d (%s): %w", i, specs[i].describe(), err)
		}
		return res, nil
	})
}
