package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// TestFigureDigestsMatchBenchGolden runs the six figure drivers the
// benchmark's round-figures workload runs, at the benchmark's full
// sizes and seed, on both backends, and compares the SHA-256 of each
// printed result with bench/testdata/round_figures_golden.json — the
// same bytes the workload's correctness check hashes. The benchmark is
// otherwise the only thing that reads that file, so without this test
// a change that moves a figure learns of it from the pipeline.
func TestFigureDigestsMatchBenchGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every figure driver at the benchmark's full sizes")
	}
	raw, err := os.ReadFile("../../bench/testdata/round_figures_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	bySeed := map[string]map[string]string{}
	if err := json.Unmarshal(raw, &bySeed); err != nil {
		t.Fatal(err)
	}
	golden := bySeed["1"]

	// bench/sizes.go fullSizes: FigN 5000, Fig9N 500, ExtremesN 1500,
	// Fig11Dataset 1. The trace driver (n 0 here) takes no Scale and has
	// no columnar form.
	figures := []struct {
		name string
		n    int
		run  func(Scale) Result
	}{
		{"fig8", 5000, Fig8},
		{"fig10b", 5000, Fig10b},
		{"pushpull", 5000, AblationPushPull},
		{"fig9", 500, Fig9},
		{"extremes", 1500, AblationExtremes},
		{"fig11sum", 0, func(Scale) Result { return Fig11Sum(1, 1) }},
	}
	if len(golden) != len(figures) {
		t.Fatalf("golden holds %d figures for seed 1, this test runs %d", len(golden), len(figures))
	}
	for _, f := range figures {
		for _, backend := range []string{"classic", "columnar"} {
			if backend == "columnar" && f.n == 0 {
				continue
			}
			res := f.run(Scale{N: f.n, Rounds: 60, FailAt: 20, Seed: 1, Columnar: backend == "columnar"})
			var buf bytes.Buffer
			if err := WriteResult(&buf, res, FormatTable); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != golden[f.name] {
				t.Errorf("%s (%s backend): output digest %s, golden %s", f.name, backend, got, golden[f.name])
			}
		}
	}
}

// TestCutoffSweepDigestsGolden pins the printed output of the
// Count-Sketch-Reset cutoff sweeps that the benchmark's golden does not
// cover: the grid-cutoff ablation and Figure 11's size column on the
// two smaller traces, each at a seed of its own. Their read-outs share
// one simulation, so a change that lets the cutoff leak into aging or
// peer choice moves these bytes.
func TestCutoffSweepDigestsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs three trace- and grid-sized drivers")
	}
	cases := []struct {
		name string
		run  func() Result
		want string
	}{
		{"ablation-gridcutoff side 28 seed 7", func() Result { return AblationGridCutoff(28, 7) },
			"fbf487a735306d9f745fbdd8171495ae9efd8728ee410774d73d45344d63a8af"},
		{"fig11sum dataset 2 seed 3", func() Result { return Fig11Sum(2, 3) },
			"95fbba8a70f86bd3999682635b9d56892796778b96bca0ce8f1a68c3a0a223df"},
		{"fig11sum dataset 3 seed 3", func() Result { return Fig11Sum(3, 3) },
			"908a94a4db825d32b562f20b3f6e1c3caf2827bfa1a04ea73d62cb9f0c445eea"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteResult(&buf, c.run(), FormatTable); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: output digest %s, golden %s", c.name, got, c.want)
		}
	}
}
