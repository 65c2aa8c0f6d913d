package supervise

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"dynagg/internal/backoff"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/health"
	"dynagg/internal/gossip/live/transport"
)

// TestHelperSuperviseMember is not a test: it is the member process
// the supervisor tests re-exec (the classic helper-process pattern —
// the test binary re-runs itself with this test selected and behavior
// steered by H_* environment variables).
func TestHelperSuperviseMember(t *testing.T) {
	if os.Getenv("SUPERVISE_HELPER") != "1" {
		t.Skip("helper process, spawned by the supervisor tests")
	}
	runHelperMember()
}

// runHelperMember is a minimal supervised member: bootstrap against
// the seed, keep alive at a fast cadence, exit 0 when the configured
// lifetime ends — or crash (exit 1) on cue.
func runHelperMember() {
	if os.Getenv("H_CRASH") == "1" {
		os.Exit(1)
	}
	envInt := func(k string) int { v, _ := strconv.Atoi(os.Getenv(k)); return v }
	lo := gossip.NodeID(envInt("H_LO"))
	hi := gossip.NodeID(envInt("H_HI"))
	total := envInt("H_TOTAL")
	life := time.Duration(envInt("H_LIFE_MS")) * time.Millisecond

	if die := envInt("H_DIE_MS"); die > 0 {
		go func() {
			time.Sleep(time.Duration(die) * time.Millisecond)
			os.Exit(1)
		}()
	}

	tr, err := transport.NewTCP(
		transport.WithGroups(transport.Group{Lo: lo, Hi: hi, Addr: "127.0.0.1:0"}),
		transport.WithLocal(0),
		transport.WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), life)
	defer cancel()
	b := live.Bootstrap{
		Seeds:      []string{os.Getenv("H_SEED")},
		Span:       live.Span{Lo: lo, Hi: hi},
		Total:      total,
		Replace:    os.Getenv("H_REPLACE") == "1",
		Retry:      10 * time.Millisecond,
		Timeout:    10 * time.Second,
		ReAnnounce: 50 * time.Millisecond,
	}
	if err := b.Run(ctx, tr); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "helper bootstrap:", err)
		os.Exit(1)
	}
	b.KeepAlive(ctx, tr) // returns when the lifetime context expires
	// Exit NOW, skipping deferred teardown and test-framework shutdown:
	// a member that stops heartbeating but lingers as a process is
	// indistinguishable from a wedged one, and the supervisor will
	// (correctly) kill it — turning this clean completion into a crash.
	os.Exit(0)
}

// helperSpawner re-execs this test binary as a member. die, when
// positive, makes incarnation 0 crash after that long — restarts live
// their full lifetime.
func helperSpawner(t *testing.T, seedAddr func() string, total int, life time.Duration, die map[string]time.Duration) Spawner {
	t.Helper()
	return func(m Member, incarnation int) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelperSuperviseMember$")
		cmd.Env = append(os.Environ(),
			"SUPERVISE_HELPER=1",
			fmt.Sprintf("H_LO=%d", m.Lo),
			fmt.Sprintf("H_HI=%d", m.Hi),
			fmt.Sprintf("H_TOTAL=%d", total),
			"H_SEED="+seedAddr(),
			fmt.Sprintf("H_LIFE_MS=%d", life.Milliseconds()),
		)
		if incarnation > 0 {
			cmd.Env = append(cmd.Env, "H_REPLACE=1")
		} else if d := die[m.Name]; d > 0 {
			cmd.Env = append(cmd.Env, fmt.Sprintf("H_DIE_MS=%d", d.Milliseconds()))
		}
		cmd.Stderr = os.Stderr
		return cmd, nil
	}
}

// TestSupervisorHealsCrashedMembers is the headline: member a crashes
// on its own, member b is killed by chaos injection, and the
// supervisor detects both deaths via the heartbeat detector, respawns
// each with Replace bootstrap, observes them healthy again, and lets
// the run complete cleanly — no launcher intervention.
func TestSupervisorHealsCrashedMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process heal test")
	}
	const total = 8
	members := []Member{{Name: "a", Lo: 0, Hi: 4}, {Name: "b", Lo: 4, Hi: 8}}
	var sup *Supervisor
	cfg := Config{
		Total:   total,
		Members: members,
		Spawn: helperSpawner(t, func() string { return sup.SeedAddr() }, total,
			4*time.Second, map[string]time.Duration{"a": 500 * time.Millisecond}),
		// A dead threshold of 2s (20 × 100ms), far above the 50ms announce
		// cadence: on a single-CPU machine, merely starting one
		// race-instrumented child process can monopolize the CPU for a
		// second, starving an already-running sibling's announce loop —
		// and a live-but-starved member must never be restarted (each
		// false restart starves the next sibling, self-sustaining).
		Detector:       health.Config{HeartbeatEvery: 100 * time.Millisecond, SuspectFactor: 10, DeadFactor: 20},
		RestartBackoff: backoff.Policy{Min: 20 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.25},
		Poll:           10 * time.Millisecond,
		RecoveryGrace:  10 * time.Second,
		Logf:           t.Logf,
	}
	var err error
	sup, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	killed := make(chan error, 1)
	go func() {
		// Chaos injection: murder b once the cluster is warm.
		time.Sleep(1200 * time.Millisecond)
		killed <- sup.Kill("b")
	}()
	if err := sup.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-killed; err != nil {
		t.Fatalf("Kill(b): %v", err)
	}

	stats := sup.Stats()
	if stats.Restarts < 2 {
		t.Errorf("Restarts = %d, want >= 2 (one per victim)", stats.Restarts)
	}
	if stats.Completed != 2 {
		t.Errorf("Completed = %d, want 2", stats.Completed)
	}
	if len(stats.Failed) != 0 {
		t.Errorf("Failed = %v, want none", stats.Failed)
	}
	healed := map[string]bool{}
	for _, h := range stats.Heals {
		healed[h.Member] = true
		if h.DetectLatency() <= 0 {
			t.Errorf("heal %s: detect latency %v, want > 0", h.Member, h.DetectLatency())
		}
		if h.RecoverLatency() < h.DetectLatency() {
			t.Errorf("heal %s: recover %v < detect %v", h.Member, h.RecoverLatency(), h.DetectLatency())
		}
		if h.Incarnation < 1 {
			t.Errorf("heal %s: incarnation %d, want >= 1", h.Member, h.Incarnation)
		}
	}
	if !healed["a"] || !healed["b"] {
		t.Errorf("heals recorded for %v, want both a and b (heals: %+v)", healed, stats.Heals)
	}
}

// TestSupervisorRestartBudget pins the storm brake: a member that
// crash-loops burns its budget and the run fails loudly instead of
// respawning forever.
func TestSupervisorRestartBudget(t *testing.T) {
	var sup *Supervisor
	cfg := Config{
		Total:   4,
		Members: []Member{{Name: "crash", Lo: 0, Hi: 4}},
		Spawn: func(m Member, incarnation int) (*exec.Cmd, error) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestHelperSuperviseMember$")
			cmd.Env = append(os.Environ(), "SUPERVISE_HELPER=1", "H_CRASH=1")
			return cmd, nil
		},
		Detector:       health.Config{HeartbeatEvery: 50 * time.Millisecond},
		RestartBudget:  3,
		RestartBackoff: backoff.Policy{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.25},
		Poll:           5 * time.Millisecond,
		Logf:           t.Logf,
	}
	var err error
	sup, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	_ = sup // spawner does not need the seed: the member never announces

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runErr := sup.Run(ctx)
	if runErr == nil {
		t.Fatal("Run returned nil, want restart-budget error")
	}
	stats := sup.Stats()
	if stats.Restarts != 3 {
		t.Errorf("Restarts = %d, want exactly the budget of 3", stats.Restarts)
	}
	if len(stats.Failed) != 1 || stats.Failed[0] != "crash" {
		t.Errorf("Failed = %v, want [crash]", stats.Failed)
	}
}

func TestSuperviseValidation(t *testing.T) {
	spawn := func(Member, int) (*exec.Cmd, error) { return nil, nil }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no total", Config{Members: []Member{{Name: "a", Lo: 0, Hi: 4}}, Spawn: spawn}},
		{"no members", Config{Total: 4, Spawn: spawn}},
		{"no spawner", Config{Total: 4, Members: []Member{{Name: "a", Lo: 0, Hi: 4}}}},
		{"unnamed member", Config{Total: 4, Members: []Member{{Lo: 0, Hi: 4}}, Spawn: spawn}},
		{"duplicate name", Config{Total: 8, Members: []Member{
			{Name: "a", Lo: 0, Hi: 4}, {Name: "a", Lo: 4, Hi: 8}}, Spawn: spawn}},
		{"span outside total", Config{Total: 4, Members: []Member{{Name: "a", Lo: 0, Hi: 8}}, Spawn: spawn}},
		{"empty span", Config{Total: 4, Members: []Member{{Name: "a", Lo: 2, Hi: 2}}, Spawn: spawn}},
		{"overlap", Config{Total: 8, Members: []Member{
			{Name: "a", Lo: 0, Hi: 5}, {Name: "b", Lo: 4, Hi: 8}}, Spawn: spawn}},
		{"bad backoff", Config{Total: 4, Members: []Member{{Name: "a", Lo: 0, Hi: 4}}, Spawn: spawn,
			RestartBackoff: backoff.Policy{Min: time.Second, Max: time.Millisecond}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	s, err := New(Config{Total: 8, Members: []Member{
		{Name: "a", Lo: 0, Hi: 4}, {Name: "b", Lo: 4, Hi: 8}}, Spawn: spawn})
	if err != nil {
		t.Fatalf("minimal valid config rejected: %v", err)
	}
	if s.SeedAddr() == "" {
		t.Error("SeedAddr() empty")
	}
	if err := s.Kill("nope"); err == nil {
		t.Error("Kill(unknown) succeeded")
	}
	if err := s.Kill("a"); err == nil {
		t.Error("Kill(not running) succeeded")
	}
	s.Close()
}
