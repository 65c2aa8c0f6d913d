package main

import (
	"embed"
	"encoding/json"
	"strconv"
)

// The goldens pin what must repeat exactly for a seed: the round
// engine's round and message counts, and the figure drivers' output
// bytes (as SHA-256). They are recorded at fullSizes for the default
// seed; other seeds are checked for self-consistency instead.
//
//go:embed testdata/*.json
var testdata embed.FS

// columnarGolden is one seed's round-columnar trajectory.
type columnarGolden struct {
	Converge int   `json:"rounds_to_converge"`
	Recover  int   `json:"rounds_to_recover"`
	Messages int64 `json:"messages"`
}

func loadColumnarGolden() map[uint64]columnarGolden {
	return loadGolden[columnarGolden]("testdata/round_columnar_golden.json")
}

// loadFiguresGolden maps seed → figure name → SHA-256 of the figure's
// printed result.
func loadFiguresGolden() map[uint64]map[string]string {
	return loadGolden[map[string]string]("testdata/round_figures_golden.json")
}

func loadGolden[T any](path string) map[uint64]T {
	raw, err := testdata.ReadFile(path)
	if err != nil {
		panic(err) // embedded at build time
	}
	bySeed := map[string]T{}
	if err := json.Unmarshal(raw, &bySeed); err != nil {
		panic(err)
	}
	out := make(map[uint64]T, len(bySeed))
	for k, v := range bySeed {
		seed, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			panic(err)
		}
		out[seed] = v
	}
	return out
}
