package main

import (
	"math"
	"runtime"
	"time"

	"meshroute/internal/stats"
)

// minPasses is the least number of passes an untraced phase makes, even
// when one pass outlasts the window, so a median always has company.
const minPasses = 3

// setupReps is how many times a workload sets up, each time from a
// collected heap; setup_s is the median.
const setupReps = 25

// repeat calls pass until the window has elapsed and at least least
// passes have run, and returns the number of passes.
func repeat(window time.Duration, least int, pass func() error) (int, error) {
	deadline := time.Now().Add(window)
	n := 0
	for n < least || time.Now().Before(deadline) {
		if err := pass(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// quantile is the nearest-rank quantile q of xs.
func quantile(xs []float64, q float64) float64 { return stats.Quantiles(xs, q)[0] }

// passQuantile returns the median over passes of each pass's
// nearest-rank quantile q. When a pass holds one latency per cell, this
// is the latency of the q-th job of a typical pass, which does not jump
// between cells the way a quantile pooled over unequal cells does.
func passQuantile(passes [][]float64, q float64) float64 {
	per := make([]float64, len(passes))
	for i, p := range passes {
		per[i] = quantile(p, q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// failedLatency is the latency recorded for a failed or refused
// operation: it counts as over any limit.
var failedLatency = math.Inf(1)

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// mb converts bytes to megabytes (10^6 bytes).
func mb(b uint64) float64 { return float64(b) / 1e6 }
