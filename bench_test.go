// Package dynagg_bench holds the benchmark harness: one testing.B
// benchmark per figure of the paper's evaluation (plus the ablations
// listed in dynaggsim's usage, cmd/dynaggsim). Run with
//
//	go test -bench=. -benchmem
//
// Populations are scaled down from the paper's 100,000 hosts so the
// full suite completes in minutes; pass -full via the dynaggsim CLI
// for paper-scale runs. Each benchmark regenerates the corresponding
// figure's data series end to end (workload, failure schedule,
// protocol, metrics), so ns/op measures the cost of a complete
// experiment at the benchmark scale.
//
// Every Scale-driven benchmark runs twice: workers=0 is the
// sequential round executor, workers=G a GOMAXPROCS-sized sharded
// pool. The two modes produce byte-identical series, so the pair
// tracks the parallel speedup across the whole figure suite. All
// protocols implement gossip.AppendEmitter, so these figures also
// exercise the zero-allocation message plane end to end — allocs/op
// here is dominated by experiment setup (agents, metrics), not by
// per-message traffic.
package dynagg_bench

import (
	"fmt"
	"runtime"
	"testing"

	"dynagg/internal/experiments"
)

// benchScale is the population used by the figure benchmarks. The
// curves keep their paper shape from roughly 2,000 hosts upward.
func benchScale() experiments.Scale {
	sc := experiments.Default()
	sc.N = 2000
	sc.Rounds = 40
	return sc
}

// benchBothModes runs the figure driver under the sequential executor
// and under a GOMAXPROCS-sized worker pool.
func benchBothModes(b *testing.B, driver func(experiments.Scale) experiments.Result) {
	for _, workers := range []int{0, runtime.GOMAXPROCS(0)} {
		sc := benchScale()
		sc.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = driver(sc)
			}
		})
	}
}

// BenchmarkFig6BitCounterCDF regenerates Figure 6: the distribution of
// Count-Sketch-Reset bit counters in fully converged networks, the
// data behind the f(k) = 7 + k/4 cutoff.
func BenchmarkFig6BitCounterCDF(b *testing.B) {
	opts := experiments.DefaultFig6()
	opts.Sizes = []int{1000}
	opts.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = experiments.Fig6(opts)
	}
}

// BenchmarkFig8UncorrelatedFailures regenerates Figure 8: dynamic
// averaging accuracy when half the hosts fail at random.
func BenchmarkFig8UncorrelatedFailures(b *testing.B) {
	benchBothModes(b, experiments.Fig8)
}

// BenchmarkFig9DynamicCounting regenerates Figure 9: Count-Sketch-Reset
// versus naive sketch counting across a massive failure.
func BenchmarkFig9DynamicCounting(b *testing.B) {
	benchBothModes(b, experiments.Fig9)
}

// BenchmarkFig10aCorrelatedFailures regenerates Figure 10a: basic
// Push-Sum-Revert under value-correlated failures.
func BenchmarkFig10aCorrelatedFailures(b *testing.B) {
	benchBothModes(b, experiments.Fig10a)
}

// BenchmarkFig10bFullTransfer regenerates Figure 10b: the Full-Transfer
// optimization under value-correlated failures.
func BenchmarkFig10bFullTransfer(b *testing.B) {
	benchBothModes(b, experiments.Fig10b)
}

// BenchmarkFig11TraceAverage regenerates Figure 11 (left column):
// trace-driven dynamic averaging on the synthetic Haggle-like dataset 1.
func BenchmarkFig11TraceAverage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig11Avg(1, 1)
	}
}

// BenchmarkFig11TraceSum regenerates Figure 11 (right column):
// trace-driven dynamic size estimation on dataset 1.
func BenchmarkFig11TraceSum(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig11Sum(1, 1)
	}
}

// BenchmarkAblationPushPull measures the push versus push/pull
// convergence comparison (§III-A, Karp et al.).
func BenchmarkAblationPushPull(b *testing.B) {
	benchBothModes(b, experiments.AblationPushPull)
}

// BenchmarkAblationAdaptive measures the indegree-scaled reversion
// ablation (§III-A).
func BenchmarkAblationAdaptive(b *testing.B) {
	benchBothModes(b, experiments.AblationAdaptive)
}

// BenchmarkAblationBins measures sketch accuracy versus bin count
// (§V-B, the 64-bin / 9.7% expectation).
func BenchmarkAblationBins(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationBins(5, 5000, 1)
	}
}

// BenchmarkAblationEpoch measures the epoch-reset baseline sensitivity
// study (§II-C).
func BenchmarkAblationEpoch(b *testing.B) {
	benchBothModes(b, experiments.AblationEpoch)
}

// BenchmarkAblationOverlay measures the TAG-style spanning-tree
// baseline under churn.
func BenchmarkAblationOverlay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationOverlay(30, 1)
	}
}

// BenchmarkAblationMoments measures the dynamic standard-deviation
// extension under correlated failures.
func BenchmarkAblationMoments(b *testing.B) {
	benchBothModes(b, experiments.AblationMoments)
}

// BenchmarkAblationExtremes measures the dynamic max extension under
// correlated failures.
func BenchmarkAblationExtremes(b *testing.B) {
	benchBothModes(b, experiments.AblationExtremes)
}

// BenchmarkAblationGridCutoff measures the spatial cutoff calibration
// sweep.
func BenchmarkAblationGridCutoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationGridCutoff(16, 1)
	}
}

// BenchmarkAblationBandwidth measures the wire-bytes-per-message
// comparison across all protocols.
func BenchmarkAblationBandwidth(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.AblationBandwidth(1000, 1)
	}
}

// BenchmarkAblationMobility measures dynamic averaging under
// random-waypoint mobility.
func BenchmarkAblationMobility(b *testing.B) {
	benchBothModes(b, experiments.AblationMobility)
}
