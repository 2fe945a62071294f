// Command perfbench is the repository benchmark. It runs one named
// workload against the meshroute layers from the outside, through their
// exported functions, checks every output, and prints the workload's
// metrics; the last line of standard output is one JSON object.
//
// Run it from the repository root; perfbench/run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload perm-static --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics listed in
// BENCHMARK.json with no instrumentation inside the simulation. With
// --trace 1 it runs the workload untraced for half the window and traced
// for the other half, and reports the per-layer metrics. README.md has
// the workloads, the metric map and the cells the benchmark leaves out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to its implementation.
var workloads = map[string]func(cfg config, rep *report) error{
	"perm-static": permStatic,
	"online-load": onlineLoad,
	"service-mix": serviceMix,
	"sweep":       sweep,
}

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration
	traced bool
}

// measured returns the window of the untraced phase: the whole window,
// or half of it when a traced phase follows.
func (c config) measured() time.Duration {
	if c.traced {
		return c.window / 2
	}
	return c.window
}

func main() {
	name := flag.String("workload", "", "workload: perm-static, online-load, service-mix or sweep")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, config{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, cfg config) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.window <= 0 {
		return errors.New("--seconds must be at least 1")
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	rep := &report{values: map[string]float64{}}
	if err := wl(cfg, rep); err != nil {
		return err
	}
	if rep.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	rep.set("error_rate", float64(rep.failed)/float64(rep.attempted))

	want := decl.EndToEnd
	if cfg.traced {
		want = decl.PerLayer
	}
	units := map[string]string{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		if _, ok := units[n]; !ok {
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-26s %14.6g %s\n", n, rep.values[n], units[n])
	}

	out := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		v, ok := rep.values[m.Name]
		if !cfg.traced && (!ok || v <= 0 || math.IsNaN(v)) {
			return fmt.Errorf("end-to-end metric %s was not measured (value %v)", m.Name, v)
		}
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // the latency of failed operations: over any limit
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report collects one run's operation counts and metric values.
type report struct {
	attempted, failed int
	values            map[string]float64
}

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared is the part of BENCHMARK.json the program reads: the names
// and units of the metrics it must report.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (declared, error) {
	var d declared
	data, err := os.ReadFile(path)
	if err != nil {
		return d, fmt.Errorf("read metric declarations (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("parse %s: %w", path, err)
	}
	return d, nil
}
