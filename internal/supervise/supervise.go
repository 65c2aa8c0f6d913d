// Package supervise closes the self-healing loop: it launches the
// member processes of a live TCP deployment, acts as their bootstrap
// seed, runs the health detector over their keepalive heartbeats, and
// restarts members the detector pronounces dead — with Replace
// bootstrap semantics, so the fresh incarnation takes over the span
// the corpse still holds in everyone's membership tables.
//
// The supervisor is deliberately outside the counted population: its
// transport listens on an observer span at [Total, Total+1), which
// Covers ignores, so members gate their bootstrap on each other, never
// on the supervisor, and no gossip traffic is ever aimed at it. It
// spawns its members on its own host, so that listener binds an
// ephemeral loopback port (127.0.0.1:0); members get it from SeedAddr.
//
// Restart-storm protection is budgeted, not unbounded: each member
// gets RestartBudget restarts per DefaultBudgetWindow with jittered
// backoff between attempts; a member that burns the budget is declared
// failed and the whole supervision run stops with an error naming it,
// because a crash loop is a bug to surface, not a condition to mask.
package supervise

import (
	"context"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"time"

	"dynagg/internal/backoff"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/health"
	"dynagg/internal/gossip/live/transport"
)

// Member is one supervised process: a name for logs and Kill, and the
// host span it owns.
type Member struct {
	// Name identifies the member in logs, Stats, and Kill.
	Name string
	// Lo, Hi are the member's host span, inside [0, Total).
	Lo, Hi gossip.NodeID
}

// Spawner builds the command for one incarnation of a member. It must
// return an unstarted *exec.Cmd — the supervisor starts and waits it.
// incarnation is 0 for the first launch and increments per restart;
// spawners use it to pass restart semantics down (a restarted member
// must bootstrap with Replace so the seeds accept its new address over
// the dead incarnation's). Set Stdout/Stderr on the command before
// returning it; exec.Cmd's own copier goroutines are awaited by Wait,
// so an io.Writer there is safe without pipe plumbing.
type Spawner func(m Member, incarnation int) (*exec.Cmd, error)

// Defaults for Config's zero fields, and the sliding window the
// restart budget applies over.
const (
	DefaultRestartBudget = 5
	DefaultBudgetWindow  = time.Minute
	DefaultPoll          = 25 * time.Millisecond
)

// Config assembles a Supervisor.
type Config struct {
	// Total is the counted population size; member spans live in
	// [0, Total) and the supervisor's observer listener at Total.
	Total int
	// Members are the processes to supervise. Spans must be
	// non-overlapping and inside [0, Total).
	Members []Member
	// Spawn builds each (re)launch. Required.
	Spawn Spawner
	// Detector tunes the failure detector; its HeartbeatEvery should
	// match the members' bootstrap ReAnnounce cadence.
	Detector health.Config
	// RestartBudget caps restarts per member per DefaultBudgetWindow
	// (0 means DefaultRestartBudget).
	RestartBudget int
	// RestartBackoff paces restart attempts for one member; it resets
	// when the member is observed healthy again. Zero means
	// {Min: 250ms, Max: 5s, Jitter: 0.25}.
	RestartBackoff backoff.Policy
	// Poll is the supervision loop cadence (0 means DefaultPoll).
	Poll time.Duration
	// RecoveryGrace bounds how long a restarted member may take to be
	// observed alive before the supervisor gives up on that incarnation
	// and kills it (counting against the budget). 0 means
	// 20 × Detector.HeartbeatEvery.
	RecoveryGrace time.Duration
	// Logf, when set, receives one line per supervision event.
	Logf func(format string, args ...any)
}

// Heal is one completed crash-and-recover cycle: the wall-clock
// anchors the detect and recover latencies are computed from.
type Heal struct {
	// Member is the healed member's name; Incarnation the replacement
	// that recovered.
	Member      string
	Incarnation int
	// ExitAt is when the old process died, DetectedAt when the
	// detector's dead verdict (or exit observation) landed, RestartAt
	// when the replacement was spawned, RecoveredAt when the detector
	// saw the span alive again.
	ExitAt, DetectedAt, RestartAt, RecoveredAt time.Time
}

// DetectLatency is death-to-verdict.
func (h Heal) DetectLatency() time.Duration { return h.DetectedAt.Sub(h.ExitAt) }

// RecoverLatency is death-to-healthy.
func (h Heal) RecoverLatency() time.Duration { return h.RecoveredAt.Sub(h.ExitAt) }

// Stats summarizes a supervision run.
type Stats struct {
	// Restarts counts every respawn across all members.
	Restarts int
	// Completed counts members that exited cleanly.
	Completed int
	// Failed names members that exhausted their restart budget.
	Failed []string
	// Heals lists every completed crash-and-recover cycle.
	Heals []Heal
}

// memberPhase is the supervision loop's per-member state machine.
type memberPhase int

const (
	phaseRunning memberPhase = iota
	phaseDown                // process exited abnormally; awaiting verdict/backoff
	phaseDone                // exited cleanly — never restarted
	phaseFailed              // restart budget exhausted
)

// memberState is the supervisor's book-keeping for one member.
type memberState struct {
	spec        Member
	phase       memberPhase
	incarnation int
	cmd         *exec.Cmd
	bo          *backoff.Backoff

	exitAt        time.Time
	detectedAt    time.Time
	nextRestartAt time.Time
	restartAt     time.Time
	recovering    bool // respawned, waiting for an alive verdict
	heal          Heal // in-flight heal record
	restarts      []time.Time
}

// exitEvent is a monitor goroutine reporting its process's death.
type exitEvent struct {
	name        string
	incarnation int
	err         error
}

// Supervisor launches, watches, and heals a member fleet. Create with
// New, drive with Run, inject chaos with Kill, read with Stats.
type Supervisor struct {
	cfg Config
	tr  *transport.TCP
	det *health.Detector
	// seedAddr is resolved at construction, while the observer span is
	// the only group: the transport's table re-sorts by Lo as members
	// register, so indexing it later would hand out a member's address.
	seedAddr string

	mu      sync.Mutex
	members map[string]*memberState
	stats   Stats

	exitCh  chan exitEvent
	stopped chan struct{}
	wg      sync.WaitGroup
}

// New validates cfg, binds the supervisor's observer listener, and
// attaches the failure detector. Call Close when done.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Total <= 0 {
		return nil, fmt.Errorf("supervise: Total must be positive, got %d", cfg.Total)
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("supervise: no members")
	}
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("supervise: Spawn is required")
	}
	seen := map[string]bool{}
	spans := make([]Member, len(cfg.Members))
	copy(spans, cfg.Members)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	for i, m := range spans {
		if strings.TrimSpace(m.Name) == "" {
			return nil, fmt.Errorf("supervise: member %d has no name", i)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("supervise: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Lo < 0 || m.Lo >= m.Hi || int(m.Hi) > cfg.Total {
			return nil, fmt.Errorf("supervise: member %q span [%d,%d) outside [0,%d)", m.Name, m.Lo, m.Hi, cfg.Total)
		}
		if i > 0 && m.Lo < spans[i-1].Hi {
			return nil, fmt.Errorf("supervise: member %q span overlaps %q", m.Name, spans[i-1].Name)
		}
	}
	if cfg.RestartBudget <= 0 {
		cfg.RestartBudget = DefaultRestartBudget
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.RestartBackoff == (backoff.Policy{}) {
		cfg.RestartBackoff = backoff.Policy{Min: 250 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.25}
	}
	if err := cfg.RestartBackoff.Validate(); err != nil {
		return nil, fmt.Errorf("supervise: RestartBackoff: %w", err)
	}
	if cfg.RecoveryGrace <= 0 {
		hb := cfg.Detector.HeartbeatEvery
		if hb <= 0 {
			hb = health.DefaultHeartbeatEvery
		}
		cfg.RecoveryGrace = 20 * hb
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	obs := gossip.NodeID(cfg.Total)
	tr, err := transport.NewTCP(
		transport.WithGroups(transport.Group{Lo: obs, Hi: obs + 1, Addr: "127.0.0.1:0"}),
		transport.WithLocal(0))
	if err != nil {
		return nil, fmt.Errorf("supervise: %w", err)
	}
	s := &Supervisor{
		cfg:      cfg,
		tr:       tr,
		det:      health.Attach(tr, cfg.Detector),
		seedAddr: tr.GroupAddr(0),
		members:  make(map[string]*memberState, len(cfg.Members)),
		exitCh:   make(chan exitEvent, 4*len(cfg.Members)+16),
		stopped:  make(chan struct{}),
	}
	for _, m := range cfg.Members {
		s.members[m.Name] = &memberState{spec: m, bo: backoff.New(cfg.RestartBackoff)}
	}
	return s, nil
}

// SeedAddr is the supervisor's resolved listener address — the one
// seed every member should bootstrap against.
func (s *Supervisor) SeedAddr() string { return s.seedAddr }

// Close releases the supervisor's listener.
func (s *Supervisor) Close() error { return s.tr.Close() }

// Run launches every member and supervises until all of them exit
// cleanly (returns nil), one exhausts its restart budget (returns an
// error naming it), or ctx is cancelled (kills the fleet, returns
// ctx.Err()).
func (s *Supervisor) Run(ctx context.Context) error {
	s.mu.Lock()
	for _, m := range s.members {
		if err := s.spawnLocked(m); err != nil {
			s.mu.Unlock()
			s.shutdown()
			return err
		}
	}
	s.mu.Unlock()

	ticker := time.NewTicker(s.cfg.Poll)
	defer ticker.Stop()
	defer s.shutdown()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-s.exitCh:
			s.handleExit(ev)
		case <-ticker.C:
		}
		done, err := s.step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Kill terminates a running member's process — the chaos-injection
// hook. The supervisor's own machinery then detects and heals it like
// any other crash.
func (s *Supervisor) Kill(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[name]
	if !ok {
		return fmt.Errorf("supervise: unknown member %q", name)
	}
	if m.phase != phaseRunning || m.cmd == nil || m.cmd.Process == nil {
		return fmt.Errorf("supervise: member %q is not running", name)
	}
	s.cfg.Logf("supervise: killing %s (incarnation %d)", name, m.incarnation)
	return m.cmd.Process.Kill()
}

// Stats returns a snapshot of the run so far.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Failed = append([]string(nil), s.stats.Failed...)
	out.Heals = append([]Heal(nil), s.stats.Heals...)
	return out
}

// spawnLocked starts member m's next incarnation; callers hold mu.
func (s *Supervisor) spawnLocked(m *memberState) error {
	cmd, err := s.cfg.Spawn(m.spec, m.incarnation)
	if err != nil {
		return fmt.Errorf("supervise: spawn %s: %w", m.spec.Name, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("supervise: start %s: %w", m.spec.Name, err)
	}
	m.cmd = cmd
	m.phase = phaseRunning
	s.cfg.Logf("supervise: started %s (incarnation %d, pid %d)", m.spec.Name, m.incarnation, cmd.Process.Pid)
	name, inc := m.spec.Name, m.incarnation
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := cmd.Wait()
		select {
		case s.exitCh <- exitEvent{name: name, incarnation: inc, err: err}:
		case <-s.stopped:
		}
	}()
	return nil
}

// handleExit processes one monitor report.
func (s *Supervisor) handleExit(ev exitEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[ev.name]
	if !ok || ev.incarnation != m.incarnation || m.phase != phaseRunning {
		return // stale report from a superseded incarnation
	}
	now := time.Now()
	if ev.err == nil {
		m.phase = phaseDone
		s.stats.Completed++
		s.cfg.Logf("supervise: %s completed", ev.name)
		return
	}
	m.phase = phaseDown
	m.exitAt = now
	m.nextRestartAt = time.Time{}
	// A kill issued because the detector already flagged the span dead
	// carries its verdict time; a spontaneous crash waits for one.
	if !m.recovering && m.detectedAt.Before(m.exitAt) {
		m.detectedAt = time.Time{}
	}
	s.cfg.Logf("supervise: %s (incarnation %d) exited: %v", ev.name, m.incarnation, ev.err)
}

// step advances the supervision state machine one poll. It returns
// done=true when every member has completed, or an error when one has
// failed permanently.
func (s *Supervisor) step() (done bool, err error) {
	snap := s.det.Snapshot()
	verdict := make(map[gossip.NodeID]health.State, len(snap.Spans))
	known := make(map[gossip.NodeID]bool, len(snap.Spans))
	for _, sp := range snap.Spans {
		verdict[sp.Lo] = sp.State
		known[sp.Lo] = true
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	running := 0
	for _, m := range s.members {
		switch m.phase {
		case phaseDone:
		case phaseFailed:
			return false, fmt.Errorf("supervise: member %s exhausted its restart budget (%d in %v)",
				m.spec.Name, s.cfg.RestartBudget, DefaultBudgetWindow)
		case phaseRunning:
			running++
			s.stepRunning(m, verdict, now)
		case phaseDown:
			running++
			s.stepDown(m, verdict, known, now)
		}
	}
	return running == 0, nil
}

// stepRunning watches a live process: records recovery when a
// respawned member is seen alive again, and kills a process whose span
// the detector has pronounced dead (wedged: alive as a process, gone
// as a member) or whose restart never became healthy within the grace.
func (s *Supervisor) stepRunning(m *memberState, verdict map[gossip.NodeID]health.State, now time.Time) {
	st, seen := verdict[m.spec.Lo]
	if m.recovering {
		if seen && st == health.Alive {
			m.recovering = false
			m.bo.Reset()
			m.heal.RecoveredAt = now
			s.stats.Heals = append(s.stats.Heals, m.heal)
			s.cfg.Logf("supervise: %s healed (detect %v, recover %v)",
				m.spec.Name, m.heal.DetectLatency(), m.heal.RecoverLatency())
			return
		}
		if now.Sub(m.restartAt) > s.cfg.RecoveryGrace {
			s.cfg.Logf("supervise: %s incarnation %d never became healthy; killing", m.spec.Name, m.incarnation)
			m.detectedAt = now
			if m.cmd != nil && m.cmd.Process != nil {
				_ = m.cmd.Process.Kill()
			}
		}
		return
	}
	if seen && st == health.Dead {
		s.cfg.Logf("supervise: %s pronounced dead while process lives; killing", m.spec.Name)
		m.detectedAt = now
		if m.cmd != nil && m.cmd.Process != nil {
			_ = m.cmd.Process.Kill()
		}
	}
}

// stepDown shepherds a crashed member back: waits for the detector's
// dead verdict (unless the span was never observed — a member that
// died before its first announce has nothing to detect), then
// restarts under budget and backoff.
func (s *Supervisor) stepDown(m *memberState, verdict map[gossip.NodeID]health.State, known map[gossip.NodeID]bool, now time.Time) {
	if m.detectedAt.IsZero() {
		if !known[m.spec.Lo] || verdict[m.spec.Lo] == health.Dead {
			m.detectedAt = now
			s.cfg.Logf("supervise: detected %s dead %v after exit", m.spec.Name, now.Sub(m.exitAt))
		} else {
			return
		}
	}
	if m.nextRestartAt.IsZero() {
		m.nextRestartAt = now.Add(m.bo.Next())
	}
	if now.Before(m.nextRestartAt) {
		return
	}
	// Budget: restarts inside the sliding window.
	keep := m.restarts[:0]
	for _, t := range m.restarts {
		if now.Sub(t) < DefaultBudgetWindow {
			keep = append(keep, t)
		}
	}
	m.restarts = keep
	if len(m.restarts) >= s.cfg.RestartBudget {
		m.phase = phaseFailed
		s.stats.Failed = append(s.stats.Failed, m.spec.Name)
		s.cfg.Logf("supervise: %s failed permanently (%d restarts in %v)",
			m.spec.Name, len(m.restarts), DefaultBudgetWindow)
		return
	}
	m.restarts = append(m.restarts, now)
	m.incarnation++
	m.heal = Heal{
		Member: m.spec.Name, Incarnation: m.incarnation,
		ExitAt: m.exitAt, DetectedAt: m.detectedAt, RestartAt: now,
	}
	m.recovering = true
	m.restartAt = now
	m.detectedAt = time.Time{}
	if err := s.spawnLocked(m); err != nil {
		// Spawn failure burns a budget slot and retries on backoff.
		s.cfg.Logf("supervise: respawn %s: %v", m.spec.Name, err)
		m.phase = phaseDown
		m.recovering = false
		m.exitAt = now
		m.detectedAt = now
		m.nextRestartAt = now.Add(m.bo.Next())
		return
	}
	s.stats.Restarts++
	m.nextRestartAt = time.Time{}
}

// shutdown kills every live process and waits the monitors out.
func (s *Supervisor) shutdown() {
	close(s.stopped)
	s.mu.Lock()
	for _, m := range s.members {
		if m.phase == phaseRunning && m.cmd != nil && m.cmd.Process != nil {
			_ = m.cmd.Process.Kill()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}
