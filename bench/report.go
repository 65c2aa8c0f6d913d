package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynagg/internal/stats"
	"dynagg/internal/sysmem"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and regression bounds are declared. The program refuses
// to report a name the file does not declare, and a run that leaves a
// declared name unreported fails.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the
// checkout root, where the run command starts) or its parent (the
// package directory, where `go test` starts).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", firstErr)
}

func (s *benchSpec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// metricValue is one reported number, in the shape the result line
// carries.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics and correctness verdicts. An
// untraced run accepts exactly the end-to-end names, a traced run
// exactly the per-layer names; the other family is dropped on the
// floor so workload code can offer both without branching.
type report struct {
	mu       sync.Mutex
	traced   bool
	want     map[string]string // name → unit, the family this run prints
	other    map[string]bool   // the family this run does not print
	got      map[string]metricValue
	notes    []string
	failures []string
	ops      int64
	failed   int64
	setups   []float64
	rss      int64
}

func newReport(spec *benchSpec, traced bool) *report {
	r := &report{traced: traced, want: map[string]string{}, other: map[string]bool{}, got: map[string]metricValue{}}
	e2e, layer := spec.EndToEnd, spec.PerLayer
	if traced {
		e2e, layer = layer, e2e
	}
	for _, m := range e2e {
		r.want[m.Name] = m.Unit
	}
	for _, m := range layer {
		r.other[m.Name] = true
	}
	return r
}

// set reports one metric. A name BENCHMARK.json does not declare is a
// bug in the benchmark and is counted as a failed check.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	unit, ok := r.want[name]
	if !ok {
		if !r.other[name] {
			r.failLocked("metric %q is not declared in BENCHMARK.json", name)
		}
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failLocked("metric %q is %v", name, v)
		v = 0
	}
	r.got[name] = metricValue{Value: v, Unit: unit}
}

// op counts attempted operations that cannot individually fail a check
// line (HTTP requests, probes); failedOps of them failed.
func (r *report) op(attempted, failedOps int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops += attempted
	r.failed += failedOps
	if failedOps > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d of %d operations failed", failedOps, attempted))
	}
}

// check counts one correctness check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	if !ok {
		r.failLocked(format, args...)
	}
	return ok
}

func (r *report) failLocked(format string, args ...any) {
	r.failed++
	if len(r.failures) < 64 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) notef(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setup records one set-up duration. The run reports their lower
// quartile: work moved into set-up shows in every sample, while what
// the box's other tenants add shows only in some (set-ups are a few
// milliseconds of allocation, which a neighbour's burst easily doubles).
func (r *report) setup(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setups = append(r.setups, d.Seconds())
}

// markRSS records the process's peak resident set now, once: after a
// workload's first episode, so that the metric is the footprint of one
// episode and not of however much garbage later episodes happened to
// leave uncollected.
func (r *report) markRSS() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rss == 0 {
		r.rss = sysmem.PeakRSSBytes()
	}
}

// finish fills the metrics every workload shares and zeroes the
// per-layer names this workload's path does not touch (a layer that
// does no work on a workload reads 0 there by definition).
func (r *report) finish() {
	r.set("setup_s", stats.Quantile(r.setups, 0.25))
	r.markRSS()
	r.set("peak_rss_mb", float64(r.rss)/(1<<20))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traced {
		for name, unit := range r.want {
			if _, ok := r.got[name]; !ok {
				r.got[name] = metricValue{Value: 0, Unit: unit}
			}
		}
	}
}

func (r *report) missing() []string {
	var out []string
	for name := range r.want {
		if _, ok := r.got[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (r *report) result() result {
	r.mu.Lock()
	defer r.mu.Unlock()
	attempted := r.ops
	if attempted < 1 {
		attempted = 1
	}
	m := make(map[string]metricValue, len(r.got))
	for k, v := range r.got {
		m[k] = v
	}
	return result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: m}
}

// stamp is the provenance every result file line carries.
type stamp struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	GitRev      string  `json:"git_rev"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Sizes       sizes   `json:"sizes"`
	WallSeconds float64 `json:"wall_s"`
	Time        string  `json:"time"`
}

type stampedResult struct {
	Stamp    stamp    `json:"stamp"`
	Result   result   `json:"result"`
	Notes    []string `json:"notes,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

func newStamp(workload string, rc runConfig, wall time.Duration) stamp {
	return stamp{
		Workload: workload, Seed: rc.Seed, Seconds: rc.Seconds, Trace: rc.Trace,
		GitRev: gitRev(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sizes: rc.Sizes, WallSeconds: wall.Seconds(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRev names the measured commit from BENCH_GIT_REV or the working
// directory's own .git (no process is started and nothing outside the
// checkout is read). The driver's checkout is not a git repository, so
// "unknown" is expected there.
func gitRev() string {
	if v := os.Getenv("BENCH_GIT_REV"); v != "" {
		return v
	}
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			raw, err := os.ReadFile(dir + "/" + ref)
			if err != nil {
				return "unknown"
			}
			h = strings.TrimSpace(string(raw))
		}
		if len(h) > 12 {
			h = h[:12]
		}
		return h
	}
	return "unknown"
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quiet is the estimator for "what one iteration costs": the 10th
// percentile of the run's per-iteration samples. The benchmark runs on
// a shared box whose other tenants slow memory-bound rounds in bursts
// that last from one round to a whole run; that noise is one-sided, so
// a low percentile over ≥ 50 samples repeats run to run about three
// times better than the median does (measured on the seed commit,
// README.md), while a change to the code moves every percentile.
func quiet(xs []float64) float64 { return stats.Quantile(xs, 0.10) }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
