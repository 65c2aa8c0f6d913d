package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/stats"
)

// tiny returns a scale small enough for unit tests while preserving
// every curve's qualitative shape.
func tiny() Scale { return Scale{N: 1500, Rounds: 40, FailAt: 15, Seed: 1} }

func lastY(s stats.Series) float64 { return s.Y[s.Len()-1] }

func TestFig8Shape(t *testing.T) {
	res := Fig8(tiny())
	if len(res.Series) != len(PaperLambdas) {
		t.Fatalf("%d series, want %d", len(res.Series), len(PaperLambdas))
	}
	for i, s := range res.Series {
		if s.Len() != tiny().Rounds {
			t.Fatalf("series %d has %d points, want %d", i, s.Len(), tiny().Rounds)
		}
	}
	// Figure 8's claim: uncorrelated failures have no adverse effect.
	// Every λ's final deviation is small; λ=0 fully converges.
	if final := lastY(res.Series[0]); final > 2 {
		t.Errorf("λ=0 final deviation %v after uncorrelated failures, want ≈ 0", final)
	}
	// Larger λ leaves a larger steady-state error: λ=0.5 worst.
	if lastY(res.Series[4]) < lastY(res.Series[1]) {
		t.Errorf("λ=0.5 deviation %v below λ=0.001's %v", lastY(res.Series[4]), lastY(res.Series[1]))
	}
}

func TestFig10aShape(t *testing.T) {
	sc := tiny()
	res := Fig10a(sc)
	// Figure 10a's claim: with correlated failures λ=0 never recovers
	// (stuck near |50-25| = 25), while λ=0.1 reconverges to a small
	// plateau.
	static := lastY(res.Series[0])
	if static < 10 {
		t.Errorf("λ=0 final deviation %v, want stuck near 25", static)
	}
	lam01 := lastY(res.Series[3]) // λ=0.1
	if lam01 > 10 {
		t.Errorf("λ=0.1 final deviation %v, want reconverged", lam01)
	}
	if lam01 >= static {
		t.Errorf("λ=0.1 (%v) not better than λ=0 (%v)", lam01, static)
	}
}

func TestFig10bShape(t *testing.T) {
	// The λ=0.1 < λ=0.5 plateau ordering only emerges above the
	// window-sampling noise floor, which needs a larger population than
	// the other shape tests (the paper demonstrates it at 100,000).
	sc := Scale{N: 6000, Rounds: 50, FailAt: 20, Seed: 1}
	res := Fig10b(sc)
	// Full-Transfer: λ=0.1 reaches a low plateau; λ=0.5 converges
	// faster but to a higher plateau than λ=0.1 (the paper's trade-off).
	lam01 := res.Series[3].TailMean(5)
	lam05 := res.Series[4].TailMean(5)
	if lam01 > 6 {
		t.Errorf("full-transfer λ=0.1 plateau %v, want small", lam01)
	}
	if lam05 < lam01 {
		t.Errorf("λ=0.5 plateau %v below λ=0.1's %v, expected higher steady error", lam05, lam01)
	}
	// Both dynamic settings beat the static protocol, which stays stuck
	// near 25.
	static := res.Series[0].TailMean(5)
	if static < 5*lam05 {
		t.Errorf("static plateau %v not clearly worse than λ=0.5's %v", static, lam05)
	}
}

// TestFig10bPaperNumbers checks the two inline §V-A headline numbers
// at the default 10,000-host scale (the paper: 100,000):
// λ=0.5 converges fast to stddev ≈ 2.13; λ=0.1 converges slower to
// ≈ 0.694. Our plateaus must land within 35% of the paper's, and the
// speed/accuracy ordering must hold exactly.
func TestFig10bPaperNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-host run")
	}
	res := Fig10b(Default())
	lam01 := res.Series[3].TailMean(5)
	lam05 := res.Series[4].TailMean(5)
	if math.Abs(lam01-0.694) > 0.35*0.694 {
		t.Errorf("λ=0.1 plateau %v, paper 0.694", lam01)
	}
	if math.Abs(lam05-2.13) > 0.35*2.13 {
		t.Errorf("λ=0.5 plateau %v, paper 2.13", lam05)
	}
	// λ=0.5 must reach its plateau sooner than λ=0.1 reaches its own.
	x05, ok05 := res.Series[4].FirstBelow(lam05 * 1.25)
	x01, ok01 := res.Series[3].FirstBelow(lam01 * 1.25)
	if ok05 && ok01 && x05 > x01 {
		t.Errorf("λ=0.5 reached its plateau at round %v, after λ=0.1's %v", x05, x01)
	}
}

func TestFig9Shape(t *testing.T) {
	res := Fig9(tiny())
	if len(res.Series) != 2 {
		t.Fatalf("%d series, want 2 (limited, naive)", len(res.Series))
	}
	var limited, naive stats.Series
	for _, s := range res.Series {
		if strings.Contains(s.Label, "off") || strings.Contains(s.Label, "naive") {
			naive = s
		} else {
			limited = s
		}
	}
	if limited.Len() == 0 || naive.Len() == 0 {
		t.Fatalf("missing labelled series: %v", []string{res.Series[0].Label, res.Series[1].Label})
	}
	// After the failure, propagation limiting recovers while the naive
	// sketch stays wrong by ~half the population.
	if lastY(limited) > lastY(naive)/2 {
		t.Errorf("limited final deviation %v not clearly below naive %v", lastY(limited), lastY(naive))
	}
}

func TestFig6ProducesCDFsAndLinearCutoff(t *testing.T) {
	opts := Fig6Options{Sizes: []int{500, 2000}, Rounds: 25, MaxCounter: 12, Seed: 1}
	frs, res := Fig6(opts)
	if len(frs) != 2 {
		t.Fatalf("%d results, want 2", len(frs))
	}
	for _, fr := range frs {
		if len(fr.PerBit) == 0 {
			t.Fatalf("size %d: no per-bit CDFs", fr.Size)
		}
		// Low-order bits are sourced by many hosts: their counters
		// concentrate near 0, so the 99th percentile is small.
		if fr.PerBit[0].Total() == 0 {
			t.Errorf("size %d: bit 0 CDF empty", fr.Size)
		}
	}
	intercept, invSlope := FitCutoff(frs, 0.99)
	// The paper's fit is 7 + k/4; at test scale we only require a
	// positive intercept in single digits and a clearly sub-linear
	// slope (1/invSlope < 1).
	if intercept <= 0 || intercept > 12 {
		t.Errorf("fitted intercept %v implausible", intercept)
	}
	if invSlope < 1 {
		t.Errorf("fitted inverse slope %v, want > 1 (slope < 1 per bit)", invSlope)
	}
	if len(res.Notes) == 0 {
		t.Error("no notes on fig6 result")
	}
}

func TestFig11AvgShape(t *testing.T) {
	res := Fig11Avg(1, 1)
	// Series: one per trace lambda plus the group-size series.
	if len(res.Series) != len(TraceLambdas)+1 {
		t.Fatalf("%d series, want %d", len(res.Series), len(TraceLambdas)+1)
	}
	for i, s := range res.Series {
		if s.Len() == 0 {
			t.Fatalf("series %d empty", i)
		}
	}
	// Group-relative deviations are bounded by the value range.
	for _, s := range res.Series[:len(TraceLambdas)] {
		for _, y := range s.Y {
			if y < 0 || y > 100 || math.IsNaN(y) {
				t.Fatalf("deviation %v out of range", y)
			}
		}
	}
}

func TestFig11SumShape(t *testing.T) {
	res := Fig11Sum(1, 1)
	if len(res.Series) != 4 {
		t.Fatalf("%d series, want 4 (three modes + group size)", len(res.Series))
	}
	for i, s := range res.Series {
		if s.Len() == 0 {
			t.Fatalf("series %d empty", i)
		}
	}
}

func TestTraceDatasetSelection(t *testing.T) {
	for i := 1; i <= 3; i++ {
		p := TraceDataset(i)
		if p.N == 0 {
			t.Errorf("dataset %d empty", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TraceDataset(0) did not panic")
		}
	}()
	TraceDataset(0)
}

func TestAblationPushPull(t *testing.T) {
	res := AblationPushPull(tiny())
	if len(res.Series) < 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	// Push/pull must converge at least as fast as push: find first
	// round below 1.0 for each.
	pushX, ok1 := res.Series[0].FirstBelow(1)
	pullX, ok2 := res.Series[1].FirstBelow(1)
	if !ok1 || !ok2 {
		t.Skip("neither converged below threshold at test scale")
	}
	if pullX > pushX {
		t.Errorf("push/pull converged at round %v, push at %v: expected push/pull faster or equal", pullX, pushX)
	}
}

func TestAblationAdaptive(t *testing.T) {
	res := AblationAdaptive(tiny())
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range res.Series {
		if s.Len() == 0 {
			t.Fatal("empty series")
		}
	}
}

func TestAblationBins(t *testing.T) {
	res := AblationBins(8, 3000, 1)
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
	// Error must broadly decrease as bins increase; compare the first
	// and last bin counts in the sweep.
	s := res.Series[0]
	if s.Len() < 3 {
		t.Fatalf("bin sweep too short: %d", s.Len())
	}
	if s.Y[s.Len()-1] > s.Y[0] {
		t.Errorf("relative error grew with bins: %v -> %v", s.Y[0], s.Y[s.Len()-1])
	}
}

func TestAblationEpoch(t *testing.T) {
	res := AblationEpoch(tiny())
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
}

// TestAblationOverlay pins the ablation's table, recorded before the
// tree moved in from its own package, and the tree's exactness when
// nothing fails: exact up to summation order, since the tree adds in
// reverse BFS order and the true average in id order (4.0e-16 apart at
// seed 1).
func TestAblationOverlay(t *testing.T) {
	res := AblationOverlay(20, 1)
	var sb strings.Builder
	PrintResult(&sb, res)
	const want = "3d3c11e6d17573c7dee75cdc0e102a4d262d9a9e73813ccf03f2a4c13457553c"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != want {
		t.Errorf("AblationOverlay(20, 1) table digest %s, want %s:\n%s", got, want, sb.String())
	}
	if tree := res.Series[0]; tree.X[0] != 0 || tree.Y[0] > 1e-12 {
		t.Errorf("tree error at %v%% failures = %v, want 0 up to rounding", tree.X[0], tree.Y[0])
	}
}

// ids returns the values 0, 1, ..., n-1: host i holds i.
func ids(n int) []float64 {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	return values
}

func TestCollectExactOnStaticNetwork(t *testing.T) {
	grid := env.NewGrid(8, 8, 0)
	values := ids(64)
	for i := range values {
		values[i] *= values[i]
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	if got, want := tagTree(grid)(values), sum/64; got != want {
		t.Errorf("static tree average %v, want exactly %v", got, want)
	}
}

// The failure mode the paper describes: a host failing between build
// and collection silently drops its whole subtree. On a ring of 7 the
// BFS tree is two arms of shortest paths, 0-1-2-3 and 0-6-5-4, so a
// failed host takes with it every host farther out on its arm, and a
// failed leaf only itself.
func TestCollectDropsSubtreeOfDeadHost(t *testing.T) {
	for _, tc := range []struct {
		fail gossip.NodeID
		want float64 // average of the hosts still connected to the root
	}{
		{1, (0 + 4 + 5 + 6) / 4.0},
		{2, (0 + 1 + 4 + 5 + 6) / 5.0},
		{3, (0 + 1 + 2 + 4 + 5 + 6) / 6.0},
		{6, (0 + 1 + 2 + 3) / 4.0},
		{4, (0 + 1 + 2 + 3 + 5 + 6) / 6.0},
	} {
		grid := env.NewGrid(7, 1, 0)
		collect := tagTree(grid)
		grid.Population.Fail(tc.fail)
		if got := collect(ids(7)); got != tc.want {
			t.Errorf("host %d failed: tree average %v, want %v", tc.fail, got, tc.want)
		}
	}
}

// A failure wave can take the root itself: then nothing is collected.
func TestCollectDeadRoot(t *testing.T) {
	grid := env.NewGrid(3, 3, 0)
	collect := tagTree(grid)
	grid.Population.Fail(0)
	if got := collect([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1}); got != 0 {
		t.Errorf("dead root collected average %v, want 0", got)
	}
}

func TestPrintResult(t *testing.T) {
	var sb strings.Builder
	r := Result{
		Name: "demo", XLabel: "round", YLabel: "y",
		Series: []stats.Series{
			{Label: "a", X: []float64{0, 1}, Y: []float64{1, 2}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{3, 4}},
		},
	}
	r.Notef("note %d", 42)
	PrintResult(&sb, r)
	out := sb.String()
	for _, want := range []string{"# demo", "# note 42", "round\ta\tb", "0\t1.0000\t-", "1\t2.0000\t3.0000", "2\t-\t4.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintResultEmpty(t *testing.T) {
	var sb strings.Builder
	PrintResult(&sb, Result{Name: "empty"})
	if !strings.Contains(sb.String(), "# empty") {
		t.Error("empty result not rendered")
	}
}

func TestScales(t *testing.T) {
	if Default().N != 10000 || Full().N != 100000 {
		t.Error("scales changed unexpectedly")
	}
}
