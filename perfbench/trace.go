package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"meshroute"
	"meshroute/internal/analysis"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// tracer runs cells with a timed wrapper around every interface the
// engine calls out through (sim.Algorithm, sim.Source, sim.Analyzer,
// obs.Sink) and times each step through the Runner's step hook. The
// spans live in memory and are summed into per-layer metrics at the end.
type tracer struct {
	cells int
	run   time.Duration // RunBuilt, summed over traced cells
	steps []float64     // µs per step
	self  time.Duration // step time not spent inside a wrapped call

	parse, fingerprint, build, analyze time.Duration

	// Time and counts inside the wrapped interfaces.
	init, schedule, accept, update time.Duration
	calls                          int
	next                           time.Duration
	injections                     int
	admit                          time.Duration
	admits                         int
	sink                           time.Duration
	lines                          int
	backlogPeak                    int

	last time.Time // end of the previous step
}

// inside is the time spent in wrapped calls so far.
func (t *tracer) inside() time.Duration {
	return t.init + t.schedule + t.accept + t.update + t.next + t.admit + t.sink
}

// runCell parses, fingerprints and builds c with each call timed, runs it
// traced, and returns its statistics.
func (t *tracer) runCell(c cell) (cellRun, error) {
	t0 := time.Now()
	spec, err := scenario.Parse(c.spec)
	if err != nil {
		return cellRun{}, err
	}
	t1 := time.Now()
	if _, err := spec.Fingerprint(); err != nil {
		return cellRun{}, err
	}
	t2 := time.Now()
	run, err := spec.Build()
	if err != nil {
		return cellRun{}, err
	}
	t3 := time.Now()
	t.parse += t1.Sub(t0)
	t.fingerprint += t2.Sub(t1)
	t.build += t3.Sub(t2)
	t.cells++

	online := spec.Workload.Kind == scenario.KindOnline
	if spec.Analysis && !online {
		// The static path-system analysis Build ran, timed on its own.
		pkts := run.Net.Packets()
		demands := make([]analysis.Demand, len(pkts))
		for i, p := range pkts {
			demands[i] = analysis.Demand{Src: p.Src, Dst: p.Dst}
		}
		a0 := time.Now()
		analysis.Analyze(run.Net.Topo, demands)
		t.analyze += time.Since(a0)
	}

	var tail tailSink
	var jsonl *obs.JSONL
	var runner scenario.Runner
	if c.stream {
		jsonl = obs.NewJSONL(io.Discard)
		runner.Sink = &timedSink{inner: obs.Multi{jsonl, &tail}, t: t}
	}
	if online {
		// Build attached the untimed source; rebuild the run with the
		// source and analyzer wrapped.
		if run, err = t.buildOnline(spec); err != nil {
			return cellRun{}, err
		}
	}
	newAlg := run.NewAlg
	run.NewAlg = func() sim.Algorithm {
		t.last = time.Now()
		return &timedAlg{inner: newAlg(), t: t}
	}
	stepsBefore := len(t.steps)
	inside := t.inside()
	runner.StepHook = func(*sim.Network, int) {
		now := time.Now()
		t.steps = append(t.steps, us(now.Sub(t.last)))
		t.last = now
	}
	r0 := time.Now()
	res, err := runner.RunBuilt(context.Background(), run)
	elapsed := time.Since(r0)
	if err != nil {
		return cellRun{}, err
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			return cellRun{}, err
		}
	}
	var stepped float64
	for _, s := range t.steps[stepsBefore:] {
		stepped += s
	}
	t.self += time.Duration(stepped*float64(time.Microsecond)) - (t.inside() - inside)
	t.run += elapsed
	r := cellRun{run: elapsed, stats: res.Stats, hops: res.Net.Metrics.TotalHops}
	return r, checkCell(spec, res, tail.last.Backlog)
}

// buildOnline builds an online cell's network the way Spec.Build does,
// through the same exported constructors, with the arrival source and
// the admission-time analyzer wrapped in timers.
func (t *tracer) buildOnline(s *scenario.Spec) (*scenario.Run, error) {
	var topo grid.Topology = grid.NewSquareMesh(s.N)
	if s.Topology == scenario.TopoTorus {
		topo = grid.NewSquareTorus(s.N)
	}
	rspec, err := meshroute.LookupRouter(s.Router)
	if err != nil {
		return nil, err
	}
	cfg := rspec.Config(topo, s.K)
	if s.CheckInvariants != nil {
		cfg.CheckInvariants = *s.CheckInvariants
	}
	cfg.Watchdog = s.Watchdog
	cfg.Workers = s.Workers
	net, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	var analyze func() analysis.Result
	if s.Analysis {
		acc := analysis.NewAccumulator(topo)
		net.SetAnalyzer(&timedAnalyzer{inner: acc, t: t})
		analyze = acc.Result
	}
	w := s.Workload
	w.ApplyOnlineDefaults()
	var src sim.Source
	switch w.Process {
	case scenario.ProcessBernoulli:
		src = workload.NewBernoulli(s.N*s.N, w.Rate, w.Horizon, w.Seed)
	case scenario.ProcessHotspot:
		src = workload.NewHotspot(topo, w.Hotspots, w.Rate, w.Horizon, w.Seed)
	default:
		return nil, fmt.Errorf("%s: traced build has no %q process", s.Name, w.Process)
	}
	policy := sim.AdmitRetry
	if w.Admission == scenario.AdmissionDrop {
		policy = sim.AdmitDrop
	}
	if err := net.AttachSource(&timedSource{inner: src, t: t}, policy); err != nil {
		return nil, err
	}
	return &scenario.Run{
		Spec:     s,
		Net:      net,
		NewAlg:   rspec.New,
		Budget:   s.StepBudget(),
		Exact:    !w.Drain,
		Analysis: analyze,
	}, nil
}

// set reports the tracer's per-layer metrics, per pass.
func (t *tracer) set(rep *report, passes int) {
	p := float64(passes)
	rep.set("sim.step_p50_us", quantile(t.steps, 0.50))
	rep.set("sim.step_p95_us", quantile(t.steps, 0.95))
	rep.set("sim.self_ms", ms(t.self)/p)
	rep.set("sim.steps", float64(len(t.steps))/p)
	rep.set("routers.init_ms", ms(t.init)/p)
	rep.set("routers.schedule_ms", ms(t.schedule)/p)
	rep.set("routers.accept_ms", ms(t.accept)/p)
	rep.set("routers.update_ms", ms(t.update)/p)
	rep.set("routers.calls", float64(t.calls)/p)
	rep.set("workload.next_ms", ms(t.next)/p)
	rep.set("workload.injections", float64(t.injections)/p)
	rep.set("analysis.analyze_ms", ms(t.analyze)/p)
	rep.set("analysis.admit_ms", ms(t.admit)/p)
	rep.set("analysis.admits", float64(t.admits)/p)
	rep.set("obs.sink_ms", ms(t.sink)/p)
	rep.set("obs.lines", float64(t.lines)/p)
	rep.set("admission.backlog_peak", float64(t.backlogPeak))
	rep.set("scenario.parse_us", us(t.parse)/float64(t.cells))
	rep.set("scenario.fingerprint_us", us(t.fingerprint)/float64(t.cells))
	rep.set("scenario.build_ms", ms(t.build)/float64(t.cells))
}

// timedAlg times every call into a routing algorithm.
type timedAlg struct {
	inner sim.Algorithm
	t     *tracer
}

func (a *timedAlg) Name() string { return a.inner.Name() }

func (a *timedAlg) InitNode(net *sim.Network, n *sim.Node) {
	t0 := time.Now()
	a.inner.InitNode(net, n)
	a.t.init += time.Since(t0)
	a.t.calls++
}

func (a *timedAlg) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	t0 := time.Now()
	out := a.inner.Schedule(net, n)
	a.t.schedule += time.Since(t0)
	a.t.calls++
	return out
}

func (a *timedAlg) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, accept []bool) {
	t0 := time.Now()
	a.inner.Accept(net, n, offers, accept)
	a.t.accept += time.Since(t0)
	a.t.calls++
}

func (a *timedAlg) Update(net *sim.Network, n *sim.Node) {
	t0 := time.Now()
	a.inner.Update(net, n)
	a.t.update += time.Since(t0)
	a.t.calls++
}

// timedSource times an arrival process.
type timedSource struct {
	inner sim.Source
	t     *tracer
}

func (s *timedSource) Next(step int, buf []sim.Injection) []sim.Injection {
	t0 := time.Now()
	n := len(buf)
	buf = s.inner.Next(step, buf)
	s.t.next += time.Since(t0)
	s.t.injections += len(buf) - n
	return buf
}

func (s *timedSource) Exhausted(step int) bool { return s.inner.Exhausted(step) }

// timedAnalyzer times the admission-time congestion accumulator.
type timedAnalyzer struct {
	inner sim.Analyzer
	t     *tracer
}

func (a *timedAnalyzer) Admit(src, dst grid.NodeID) {
	t0 := time.Now()
	a.inner.Admit(src, dst)
	a.t.admit += time.Since(t0)
	a.t.admits++
}

// timedSink times a metrics sink and tracks the peak injection backlog.
type timedSink struct {
	inner obs.Sink
	t     *tracer
}

func (s *timedSink) Step(x obs.StepSample) {
	t0 := time.Now()
	s.inner.Step(x)
	s.t.sink += time.Since(t0)
	s.t.lines++
	s.t.backlogPeak = max(s.t.backlogPeak, x.Backlog)
}

func (s *timedSink) Span(sp obs.Span) {
	t0 := time.Now()
	s.inner.Span(sp)
	s.t.sink += time.Since(t0)
	s.t.lines++
}

func (s *timedSink) Event(e obs.Event) {
	if es, ok := s.inner.(obs.EventSink); ok {
		t0 := time.Now()
		es.Event(e)
		s.t.sink += time.Since(t0)
		s.t.lines++
	}
}

// Run forwards the terminal summary, written after the last step.
func (s *timedSink) Run(r obs.RunSummary) {
	if rs, ok := s.inner.(obs.RunSink); ok {
		rs.Run(r)
	}
}
