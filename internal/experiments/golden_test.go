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
