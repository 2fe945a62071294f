// Command meshroute runs one routing algorithm on one workload and prints
// the routing statistics.
//
// Usage:
//
//	meshroute -router thm15 -n 64 -k 2 -workload reversal
//	meshroute -router clt -n 81 -workload random -seed 7
//	meshroute -router dimorder -n 32 -k 4 -workload hh -h 2 -torus
//
// Runs are described by scenario specs (internal/scenario): the flags
// build one, -dump-scenario prints it, and -scenario replays a committed
// spec file, so any run — including every pinned golden-digest scenario
// under testdata/scenarios/ — is reproducible from a single JSON file:
//
//	meshroute -scenario testdata/scenarios/thm15-n16-k2.json
//	meshroute -router zigzag -n 24 -workload reversal -dump-scenario > run.json
//
// Interrupting a run (SIGINT/SIGTERM) stops it between steps and prints
// the partial statistics and diagnostics instead of discarding them.
//
// Observability (see docs/OBSERVABILITY.md):
//
//	meshroute -router thm15 -n 64 -workload reversal -metrics-out run.jsonl
//	meshroute -router clt -n 81 -workload random -metrics-out spans.jsonl
//	meshroute -router thm15 -n 128 -workload reversal -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"meshroute"
	"meshroute/internal/clt"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/trace"
	"meshroute/internal/viz"
)

func main() {
	var (
		router        = flag.String("router", meshroute.RouterThm15, fmt.Sprintf("router: one of %v or clt", meshroute.RouterNames()))
		n             = flag.Int("n", 32, "mesh side length")
		k             = flag.Int("k", 2, "queue capacity per queue")
		wl            = flag.String("workload", "random", "workload: random|random-dest|transpose|reversal|bitrev|rotation|hh")
		seed          = flag.Int64("seed", 1, "workload seed")
		h             = flag.Int("h", 2, "h for the h-h workload")
		torus         = flag.Bool("torus", false, "use a torus instead of a mesh")
		maxSteps      = flag.Int("steps", 0, "step budget (0 = automatic)")
		improved      = flag.Bool("improved-q", false, "clt: use the 564n constant")
		showViz       = flag.Bool("viz", false, "print occupancy/traffic heatmaps (non-clt routers)")
		traceFile     = flag.String("trace", "", "write a JSON-lines step trace to this file")
		metricsOut    = flag.String("metrics-out", "", "write metrics JSONL (per-step samples; clt: phase spans) to this file")
		cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile    = flag.String("memprofile", "", "write a pprof heap profile to this file")
		scenarioFile  = flag.String("scenario", "", "run this scenario spec file instead of building one from the flags")
		dumpScenario  = flag.Bool("dump-scenario", false, "print the run's scenario spec as JSON and exit without running")
		submitFile    = flag.String("submit", "", "submit this scenario spec file (or sweep array) to a meshrouted server instead of running locally")
		server        = flag.String("server", "http://127.0.0.1:8421", "meshrouted base URL for -submit")
		submitTimeout = flag.Duration("submit-timeout", 2*time.Minute, "overall budget for -submit, including retries on transient errors (0 = no limit)")
		routerSeed    = flag.Uint64("router-seed", 0, "seed for a randomized router's decisions (rand-zigzag; 0 = default stream)")
		analyze       = flag.Bool("analyze", false, "compute the workload's congestion C and dilation D and report makespan/(C+D) (see docs/ANALYSIS.md)")

		faultSeed   = flag.Int64("fault-seed", 1, "fault schedule seed")
		faultLinks  = flag.Int("fault-links", 0, "number of link-failure episodes to inject (0 = no link faults)")
		faultDown   = flag.Int("fault-down", 50, "mean duration of a transient link failure, in steps")
		faultPerm   = flag.Float64("fault-perm", 0, "fraction of link failures that are permanent (0..1)")
		faultStalls = flag.Int("fault-stalls", 0, "number of node-stall episodes to inject")
		faultStall  = flag.Int("fault-stall", 20, "mean duration of a node stall, in steps")
		faultHoriz  = flag.Int("fault-horizon", 0, "fault onsets are uniform in [1,horizon] (0 = 4n, the traffic timescale)")
		faultAware  = flag.Bool("fault-aware", false, "use the router's fault-aware variant (zigzag, rand-zigzag)")
		watchdog    = flag.Int("watchdog", 0, "abort after this many steps without a delivery (0 = off)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var cpuOut *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuOut = f
	}
	err := run(ctx, cliOptions{
		router: *router, n: *n, k: *k, wl: *wl, seed: *seed, h: *h, torus: *torus,
		maxSteps: *maxSteps, improved: *improved, showViz: *showViz,
		traceFile: *traceFile, metricsOut: *metricsOut,
		scenarioFile: *scenarioFile, dumpScenario: *dumpScenario,
		submitFile: *submitFile, server: *server, submitTimeout: *submitTimeout,
		routerSeed: *routerSeed, analyze: *analyze,
		faultSeed: *faultSeed, faultLinks: *faultLinks, faultDown: *faultDown,
		faultPerm: *faultPerm, faultStalls: *faultStalls, faultStall: *faultStall,
		faultHoriz: *faultHoriz, faultAware: *faultAware, watchdog: *watchdog,
	})
	if cpuOut != nil {
		pprof.StopCPUProfile()
		if cerr := cpuOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memprofile != "" {
		if werr := writeHeapProfile(*memprofile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// writeHeapProfile forces a GC (for up-to-date accounting) and writes the
// heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cliOptions carries the parsed flag values.
type cliOptions struct {
	router                  string
	n, k                    int
	wl                      string
	seed                    int64
	h                       int
	torus                   bool
	maxSteps                int
	improved, showViz       bool
	traceFile, metricsOut   string
	scenarioFile            string
	dumpScenario            bool
	submitFile, server      string
	submitTimeout           time.Duration
	routerSeed              uint64
	analyze                 bool
	faultSeed               int64
	faultLinks, faultStalls int
	faultDown, faultStall   int
	faultHoriz              int
	faultPerm               float64
	faultAware              bool
	watchdog                int
}

// spec assembles the scenario described by the flags.
func (o cliOptions) spec() (*scenario.Spec, error) {
	s := &scenario.Spec{
		N:          o.n,
		K:          o.k,
		Router:     o.router,
		FaultAware: o.faultAware,
		Seed:       o.routerSeed,
		Watchdog:   o.watchdog,
		MaxSteps:   o.maxSteps,
		MetricsOut: o.metricsOut,
		TraceOut:   o.traceFile,
		Analysis:   o.analyze,
	}
	if o.torus {
		s.Topology = scenario.TopoTorus
	}
	switch o.wl {
	case scenario.KindRandom, scenario.KindRandomDest:
		s.Workload = scenario.Workload{Kind: o.wl, Seed: o.seed}
	case scenario.KindTranspose, scenario.KindReversal, scenario.KindBitRev:
		s.Workload = scenario.Workload{Kind: o.wl}
	case scenario.KindRotation:
		s.Workload = scenario.Workload{Kind: o.wl, DX: o.n / 3, DY: o.n / 5}
	case scenario.KindHH:
		s.Workload = scenario.Workload{Kind: o.wl, H: o.h, Seed: o.seed}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.wl)
	}
	if o.faultLinks > 0 || o.faultStalls > 0 {
		// Onsets must land while traffic is still in flight to matter, so
		// the default horizon is the delivery timescale (4n covers the
		// ~2n–3n makespan of permutation workloads), not the step budget.
		horizon := o.faultHoriz
		if horizon <= 0 {
			horizon = 4 * o.n
		}
		s.Faults = &scenario.Faults{
			Seed:           o.faultSeed,
			Horizon:        horizon,
			LinkFailures:   o.faultLinks,
			MeanDownSteps:  o.faultDown,
			PermanentFrac:  o.faultPerm,
			NodeStalls:     o.faultStalls,
			MeanStallSteps: o.faultStall,
		}
	}
	return s, nil
}

func run(ctx context.Context, o cliOptions) error {
	if o.submitFile != "" {
		return runSubmit(ctx, o)
	}
	if o.router == "clt" && o.scenarioFile == "" && !o.dumpScenario {
		return runCLT(o)
	}

	var spec *scenario.Spec
	var err error
	if o.scenarioFile != "" {
		spec, err = scenario.Load(o.scenarioFile)
		if err != nil {
			return err
		}
		// Presentation and output flags still apply to a loaded scenario.
		if o.metricsOut != "" {
			spec.MetricsOut = o.metricsOut
		}
		if o.traceFile != "" {
			spec.TraceOut = o.traceFile
		}
		if o.analyze {
			spec.Analysis = true
		}
	} else {
		spec, err = o.spec()
		if err != nil {
			return err
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	if o.dumpScenario {
		// Materialize the online kind's defaulted knobs so the dumped spec
		// spells out exactly what would run.
		spec.Workload.ApplyOnlineDefaults()
		if err := spec.Write(os.Stdout); err != nil {
			return err
		}
		// The fingerprint goes to stderr so stdout stays a clean spec file.
		if fp, err := spec.Fingerprint(); err == nil {
			fmt.Fprintf(os.Stderr, "fingerprint: %s\n", fp)
		}
		return nil
	}
	return runScenario(ctx, spec, o.showViz)
}

// runScenario executes one spec through the Runner and prints statistics —
// full on success, partial with diagnostics when the run aborts.
func runScenario(ctx context.Context, spec *scenario.Spec, showViz bool) error {
	run, err := spec.Build()
	if err != nil {
		return err
	}
	if run.Faults != nil {
		fmt.Printf("faults: %s (seed %d)\n", run.Faults, spec.Faults.Seed)
	}
	r := scenario.Runner{}
	if showViz {
		snapshotAt := spec.N / 2 // mid-flight occupancy
		r.StepHook = func(net *sim.Network, step int) {
			if step == snapshotAt {
				fmt.Printf("occupancy after %d steps:\n%s\n", snapshotAt, viz.Occupancy(net))
			}
		}
	}
	res, err := r.RunBuilt(ctx, run)
	if err != nil {
		return err
	}
	if spec.TraceOut != "" {
		fmt.Printf("trace: %d steps written to %s\n", res.Steps, spec.TraceOut)
	}
	if spec.MetricsOut != "" {
		fmt.Printf("metrics: %d step samples, %d spans written to %s\n",
			res.StepSamples, res.Spans, spec.MetricsOut)
	}
	if res.Err != nil {
		var cerr *sim.CanceledError
		if errors.As(res.Err, &cerr) {
			fmt.Printf("interrupted at step %d — partial results:\n", res.Net.Step())
		}
		printStats(spec.Router, spec.N, spec.K, res.Stats)
		fmt.Printf("diagnostics: %s\n", res.Net.CollectDiagnostics())
		return res.Err
	}
	printStats(spec.Router, spec.N, spec.K, res.Stats)
	if showViz && spec.TraceOut != "" {
		f, err := os.Open(spec.TraceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		steps, err := trace.Read(f)
		if err != nil {
			return err
		}
		a := trace.Analyze(steps)
		fmt.Printf("\n%s\ndelivery curve:\n%s", viz.LinkTraffic(run.Net.Topo, a), viz.DeliveryCurve(a, 8))
	}
	return nil
}

// runCLT routes with the Section 6 algorithm, which has its own phase
// structure and statistics and stays outside the scenario registry.
func runCLT(o cliOptions) error {
	if o.torus {
		return fmt.Errorf("the Section 6 algorithm targets the mesh")
	}
	topo := meshroute.NewMesh(o.n)
	var perm *meshroute.Permutation
	switch o.wl {
	case "random":
		perm = meshroute.RandomPermutation(topo, o.seed)
	case "random-dest":
		perm = meshroute.RandomDestinations(topo, o.seed)
	case "transpose":
		perm = meshroute.Transpose(topo)
	case "reversal":
		perm = meshroute.Reversal(topo)
	case "bitrev":
		perm = meshroute.BitReversal(topo)
	case "rotation":
		perm = meshroute.Rotation(topo, o.n/3, o.n/5)
	case "hh":
		hh := meshroute.RandomHH(topo, o.h, o.seed)
		perm = &meshroute.Permutation{Pairs: hh.Pairs}
	default:
		return fmt.Errorf("unknown workload %q", o.wl)
	}

	var sink *obs.JSONL
	var sinkOut *os.File
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		sinkOut = f
		sink = obs.NewJSONL(f)
	}
	cfg := clt.Config{N: o.n, ImprovedQ: o.improved}
	if sink != nil {
		cfg.Sink = sink
	}
	r, err := clt.New(cfg)
	if err != nil {
		return err
	}
	res, err := r.Route(perm)
	if err != nil {
		return err
	}
	fmt.Printf("clt (Section 6, Theorem 34) on %d×%d, %d packets\n", o.n, o.n, res.Packets)
	fmt.Printf("  synchronized schedule: %d steps (%.1f·n; bound %d·n)\n",
		res.TimeFormula, float64(res.TimeFormula)/float64(o.n), map[bool]int{false: 972, true: 564}[o.improved])
	fmt.Printf("  measured work steps:   %d\n", res.TimeMeasured)
	fmt.Printf("  peak node occupancy:   %d (bound 834)\n", res.MaxQueue)
	fmt.Printf("  base case steps:       %d, tile iterations: %d\n", res.BaseCaseSteps, res.Iterations)
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		if err := sinkOut.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics: %d step samples, %d spans written to %s\n",
			sink.StepCount(), sink.SpanCount(), o.metricsOut)
	}
	return nil
}

func printStats(router string, n, k int, st meshroute.RouteStats) {
	fmt.Printf("%s on %d×%d (k=%d), %d packets\n", router, n, n, k, st.Total)
	fmt.Printf("  delivered: %d/%d (done=%v in %d steps)\n", st.Delivered, st.Total, st.Done, st.Steps)
	fmt.Printf("  makespan:  %d steps (%.2f·n)\n", st.Makespan, float64(st.Makespan)/float64(n))
	fmt.Printf("  max queue: %d, avg delay: %.1f\n", st.MaxQueue, st.AvgDelay)
	if st.FaultDrops > 0 {
		fmt.Printf("  fault drops: %d moves\n", st.FaultDrops)
	}
	if st.Online {
		fmt.Printf("  admission: %d offered, %d admitted, %d refused (rate %.3f), %d dropped\n",
			st.Offered, st.Admitted, st.Refused, st.RefusalRate(), st.Dropped)
		fmt.Printf("  throughput: %.3f delivered/step, delay p50/p95/p99: %.0f/%.0f/%.0f\n",
			st.Throughput, st.DelayP50, st.DelayP95, st.DelayP99)
	}
	if st.Analyzed {
		fmt.Printf("  analysis:  C=%d D=%d, cd_ratio=%.3f (makespan/(C+D))\n",
			st.Congestion, st.Dilation, st.CDRatio)
	}
}
