package meshroute_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"meshroute/internal/scenario"
)

// TestRunLeavesNoGoroutines pins that a finished run owns no goroutines:
// the engine steps serially, so Runner.Run returns with exactly the
// goroutines that were alive before it, even for a spec that still carries
// the deprecated intra-step Workers field and while its result (and so
// its Network) is kept alive.
func TestRunLeavesNoGoroutines(t *testing.T) {
	spec, err := scenario.Load(filepath.Join(scenarioDir, "online-bernoulli-n64-k4.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 4
	var r scenario.Runner
	before := runtime.NumGoroutine()
	res, err := r.Run(context.Background(), spec)
	after := runtime.NumGoroutine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run aborted: %v", res.Err)
	}
	if after > before {
		t.Fatalf("%d goroutines alive after Runner.Run, %d before", after, before)
	}
	runtime.KeepAlive(res)
}
