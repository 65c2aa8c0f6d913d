package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"no-such-experiment"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunRejectsMissingName(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing experiment name accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"fig8", "-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestTraceGenAndInfo(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	if err := run([]string{"trace-gen", "-dataset", "1", "-o", path}); err != nil {
		t.Fatalf("trace-gen: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# devices 9") {
		t.Errorf("generated trace missing devices header")
	}
	infoPath := filepath.Join(dir, "info.txt")
	if err := run([]string{"trace-info", "-in", path, "-o", infoPath}); err != nil {
		t.Fatalf("trace-info: %v", err)
	}
	info, err := os.ReadFile(infoPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(info), "devices:  9") {
		t.Errorf("trace-info output unexpected:\n%s", info)
	}
}

func TestTraceGenRejectsBadDataset(t *testing.T) {
	if err := run([]string{"trace-gen", "-dataset", "7"}); err == nil {
		t.Error("bad dataset accepted")
	}
}

func TestTraceInfoRequiresInput(t *testing.T) {
	if err := run([]string{"trace-info"}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"trace-info", "-in", "/nonexistent/file"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTraceInfoContacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "contacts.dat")
	if err := os.WriteFile(path, []byte("1 2 0 3600\n2 3 1800 7200\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "info.txt")
	if err := run([]string{"trace-info", "-in", path, "-contacts", "-o", out}); err != nil {
		t.Fatalf("trace-info -contacts: %v", err)
	}
	info, _ := os.ReadFile(out)
	if !strings.Contains(string(info), "devices:  3") {
		t.Errorf("contacts info unexpected:\n%s", info)
	}
}

func TestOutputFormats(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"table", "csv", "json"} {
		path := filepath.Join(dir, "out."+format)
		args := []string{"fig8", "-n", "300", "-rounds", "8", "-format", format, "-o", path}
		if err := run(args); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("format %s produced empty output", format)
		}
	}
	if err := run([]string{"fig8", "-n", "300", "-rounds", "8", "-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestRunLiveTransports smoke-runs the live engine through the CLI
// over both transports, with and without injected loss. Estimate
// quality is asserted in package live; here we check the plumbing and
// that the report reaches the writer.
func TestRunLiveTransports(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"live", "-n", "128", "-ticks", "30"},
		{"live", "-n", "128", "-ticks", "30", "-transport", "udp", "-udp-groups", "2"},
		{"live", "-n", "128", "-ticks", "30", "-transport", "udp", "-loss", "0.2"},
		{"live", "-n", "128", "-ticks", "30", "-protocol", "revert", "-loss", "0.1"},
	}
	for i, args := range cases {
		path := filepath.Join(dir, "live.txt")
		if err := run(append(args, "-o", path)); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "mean estimate") {
			t.Errorf("case %d: report missing estimate:\n%s", i, data)
		}
	}
}

// TestRunLiveProfiles pins that the profiling flags wrap the live mode
// like every other: the columnar engine over loopback TCP batches — the
// shape the benchmark's live-batch workload runs — leaves a CPU and a
// heap profile behind, so its hot spots can be read without patching
// anything.
func TestRunLiveProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "live.cpu.pprof"), filepath.Join(dir, "live.mem.pprof")
	args := []string{"live", "-n", "4096", "-ticks", "40", "-protocol", "revert", "-backend", "columnar",
		"-transport", "tcp", "-udp-groups", "2", "-o", filepath.Join(dir, "live.txt"),
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	for _, prof := range []string{cpu, mem} {
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", prof, err)
		}
	}
}

func TestRunLiveRejectsBadKnobs(t *testing.T) {
	if err := run([]string{"live", "-protocol", "nope"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run([]string{"live", "-transport", "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	if err := run([]string{"live", "-loss", "1.5", "-n", "16", "-ticks", "1"}); err == nil {
		t.Error("loss probability above 1 accepted")
	}
	for _, mode := range []string{"live", "bench", "fig8", "chaos"} {
		if err := run([]string{mode, "-backend", "gpu"}); err == nil {
			t.Errorf("%s: unknown backend accepted", mode)
		}
	}
}

// TestRunSuperviseRejectsBadKnobs pins the supervise-mode flag
// validation; the healing run itself is exercised by `make heal-soak`
// and the internal/supervise tests (re-exec spawning does not work
// from inside a test binary).
func TestRunSuperviseRejectsBadKnobs(t *testing.T) {
	if err := run([]string{"supervise", "-members", "10", "-n", "4"}); err == nil {
		t.Error("members > population accepted")
	}
	if err := run([]string{"fig8", "-members", "3"}); err == nil {
		t.Error("-members outside supervise accepted")
	}
	if err := run([]string{"bench", "-replace"}); err == nil {
		t.Error("-replace outside live accepted")
	}
	if err := run([]string{"live", "-replace", "-n", "16", "-ticks", "1"}); err == nil {
		t.Error("-replace without -seeds/-span accepted")
	}
	if err := run([]string{"live", "-reannounce", "50ms", "-n", "16", "-ticks", "1"}); err == nil {
		t.Error("-reannounce without -seeds/-span accepted")
	}
}

// TestRunChaosCrashRestartReportsRecovery pins the one number a
// crash-restart summary adds to the damage line: how many rounds past
// the restart the population took to reabsorb the reset span.
func TestRunChaosCrashRestartReportsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.txt")
	if err := run([]string{"chaos", "-scenario=crash-restart", "-seed", "1", "-o", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fault crashrestart recovery rounds after restart ") {
		t.Errorf("crash-restart summary missing its recovery line:\n%s", data)
	}
}

// Smoke-run the cheapest experiments end to end through the CLI path.
// Output goes to stdout; correctness of the numbers is asserted in
// package experiments — here we only care that the plumbing works.
func TestRunSmallExperiments(t *testing.T) {
	cases := [][]string{
		{"fig8", "-n", "400", "-rounds", "15"},
		{"fig10a", "-n", "400", "-rounds", "15"},
		{"ablation-pushpull", "-n", "400", "-rounds", "15"},
		{"ablation-pushpull", "-n", "400", "-rounds", "15", "-backend", "columnar"},
		{"ablation-epoch", "-n", "400", "-rounds", "15"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunEngineBench smoke-runs the raw engine benchmark mode on both
// execution paths at a tiny population, checks the report fields, and
// exercises the profiling flags every 1M investigation starts from.
func TestRunEngineBench(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"aos", []string{"bench", "-n", "500", "-rounds", "4"}},
		{"columnar", []string{"bench", "-n", "500", "-rounds", "4", "-backend", "columnar"}},
		{"revert", []string{"bench", "-n", "500", "-rounds", "4", "-protocol", "revert", "-backend", "columnar"}},
		{"sketchreset", []string{"bench", "-n", "500", "-rounds", "4", "-protocol", "sketchreset", "-backend", "columnar", "-workers", "2"}},
	} {
		path := filepath.Join(dir, tc.name+".txt")
		cpu := filepath.Join(dir, tc.name+".cpu.pprof")
		mem := filepath.Join(dir, tc.name+".mem.pprof")
		args := append(tc.args, "-o", path, "-cpuprofile", cpu, "-memprofile", mem)
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"ns/round", "msgs/round", "peak_rss_bytes", "estimate mean"} {
			if !strings.Contains(string(data), field) {
				t.Errorf("%s: report missing %q:\n%s", tc.name, field, data)
			}
		}
		for _, prof := range []string{cpu, mem} {
			if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (err=%v)", tc.name, prof, err)
			}
		}
	}
	if err := run([]string{"bench", "-protocol", "nope", "-n", "10"}); err == nil {
		t.Error("unknown bench protocol accepted")
	}
}
