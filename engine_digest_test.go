package meshroute_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"meshroute/internal/scenario"
	"meshroute/internal/sim"
)

// The engine-equivalence golden digests: every registry router (including
// the fault-aware variants under a seeded fault schedule, and two dynamic-
// injection scenarios) runs on a fixed workload, and the resulting
// per-packet (ID, DeliverStep, Hops) sequence is hashed. The digests are
// pinned in testdata/engine_digests.json, generated on the pre-arena
// engine, so any hot-path refactor that changes routing behavior — even by
// one step on one packet — fails this test.
//
// The scenarios themselves are committed spec files under
// testdata/scenarios/ and are built and executed through the scenario
// layer, so the digest suite also pins the spec-to-run translation: a
// change to scenario.Build or the Runner that alters routing behavior
// fails here exactly like an engine change would.
//
// Regenerate (only when a behavior change is intended and understood) with:
//
//	go test . -run TestEngineGoldenDigests -update-engine-digests
var updateDigests = flag.Bool("update-engine-digests", false,
	"rewrite testdata/engine_digests.json from the current engine")

const (
	digestFile  = "testdata/engine_digests.json"
	scenarioDir = "testdata/scenarios"
)

// undigestedScenarios are committed spec files that the digest suite runs
// (they must stay loadable and executable) but that have no pinned digest:
// smoke.json is the CI smoke scenario, sized for speed, not coverage.
var undigestedScenarios = map[string]bool{"smoke": true}

// loadScenarios reads every committed spec file, sorted by name for
// deterministic subtest order.
func loadScenarios(t *testing.T) []*scenario.Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(scenarioDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no scenario files in %s", scenarioDir)
	}
	sort.Strings(paths)
	specs := make([]*scenario.Spec, 0, len(paths))
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSuffix(filepath.Base(path), ".json"); spec.Name != want {
			t.Fatalf("%s: spec name %q does not match its file name", path, spec.Name)
		}
		specs = append(specs, spec)
	}
	return specs
}

// runScenario builds and executes one spec and returns the finished
// network for digesting. Scenarios must be deterministic and must not
// abort.
func runScenario(t *testing.T, spec *scenario.Spec) *sim.Network {
	t.Helper()
	run, err := spec.Build()
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	var r scenario.Runner
	res, err := r.RunBuilt(context.Background(), run)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if res.Err != nil {
		t.Fatalf("%s: run aborted: %v", spec.Name, res.Err)
	}
	return res.Net
}

// digestNet hashes the per-packet outcome of a finished run: for every
// packet in ID order, (ID, InjectStep, DeliverStep, Hops). FNV-1a keeps the
// digest stable across platforms.
func digestNet(net *sim.Network) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range net.Packets() {
		w(int64(p.ID))
		w(int64(p.InjectStep))
		w(int64(p.DeliverStep))
		w(int64(p.Hops))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func loadDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("read pinned digests (regenerate with -update-engine-digests): %v", err)
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse %s: %v", digestFile, err)
	}
	return m
}

// TestEngineGoldenDigests asserts that every committed scenario reproduces
// its pinned pre-refactor digest bit for bit.
func TestEngineGoldenDigests(t *testing.T) {
	specs := loadScenarios(t)
	if *updateDigests {
		out := make(map[string]string, len(specs))
		for _, spec := range specs {
			if undigestedScenarios[spec.Name] {
				continue
			}
			out[spec.Name] = digestNet(runScenario(t, spec))
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(out), digestFile)
		return
	}
	pinned := loadDigests(t)
	haveFile := make(map[string]bool, len(specs))
	for _, spec := range specs {
		haveFile[spec.Name] = true
	}
	for name := range pinned {
		if !haveFile[name] {
			t.Fatalf("pinned digest %s has no spec file in %s", name, scenarioDir)
		}
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := pinned[spec.Name]
			if !ok {
				if undigestedScenarios[spec.Name] {
					runScenario(t, spec) // must still execute cleanly
					return
				}
				t.Fatalf("no pinned digest for %s (regenerate with -update-engine-digests)", spec.Name)
			}
			if got := digestNet(runScenario(t, spec)); got != want {
				t.Fatalf("digest %s != pinned %s: engine behavior changed", got, want)
			}
		})
	}
}
