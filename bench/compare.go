package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spreads printed here are the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// readResultSet groups a result file's untraced runs by workload and
// metric. A result set is what `-o file` appended over several runs.
func readResultSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r stampedResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Stamp.Trace {
			continue // per-layer metrics carry no bound
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d reports failed checks; an incorrect run measures nothing", path, line, r.Stamp.Workload, r.Stamp.Seed)
		}
		byMetric := out[r.Stamp.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			out[r.Stamp.Workload] = byMetric
		}
		for name, m := range r.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, per workload × end-to-end metric, both medians,
// both spreads and a verdict against the metric's bound, and returns
// the process exit code: 1 when anything regressed.
//
//   - regressed: B's median is worse than A's by more than the bound.
//   - unresolved: not regressed, but a spread is wider than the bound,
//     so "unchanged" cannot be claimed — unless every run of B reads
//     better than every run of A.
//   - ok: otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(w, err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-16s %-14s %14s %14s %8s %8s %8s %7.2f  missing (%d runs in A, %d in B)\n",
					wl.Name, m.Name, "-", "-", "-", "-", "-", m.Bound, len(xa), len(xb))
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case (sa > m.Bound || sb > m.Bound) && !allBetter(xa, xb, m.Better == "higher"):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return code
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, higher bool) bool {
	minA, maxA := a[0], a[0]
	for _, x := range a {
		minA, maxA = min(minA, x), max(maxA, x)
	}
	for _, x := range b {
		if higher && x <= maxA || !higher && x >= minA {
			return false
		}
	}
	return true
}
