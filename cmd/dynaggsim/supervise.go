package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"dynagg/internal/chaos"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/health"
	"dynagg/internal/supervise"
)

// superviseOpts carries the supervise-mode flags: a self-healing
// mini-deployment in one command. The supervisor binds the bootstrap
// seed, re-execs this binary as `live` cluster members (one per span),
// watches their keepalive heartbeats through the failure detector, and
// restarts any member it pronounces dead — optionally after murdering
// one on cue to demonstrate the heal — then judges their estimates and
// audits their mass.
type superviseOpts struct {
	n         int           // counted population size
	members   int           // member process count (spans split evenly)
	protocol  string        // protocol each member runs
	ticks     int           // ticks per member engine run
	pace      time.Duration // member tick duty cycle
	heartbeat time.Duration // keepalive cadence = detector HeartbeatEvery
	killAfter time.Duration // chaos: kill -kill this long into the run (0 = no kill)
	killName  string        // member to kill at killAfter
	budget    int           // restarts per member per minute
	seed      uint64
}

func superviseFlags(fs *flag.FlagSet) func(io.Writer) error {
	var o superviseOpts
	countVar(fs, &o.n, "n", 64, "counted population `size`")
	countVar(fs, &o.members, "members", 2, "member process `count`, spans split evenly")
	fs.StringVar(&o.protocol, "protocol", "revert", "protocol each member runs (see live -h); pushsum cannot heal a kill: the mass a killed member held is lost for good")
	countVar(fs, &o.ticks, "ticks", 300, "tick `count` per member engine run")
	fs.DurationVar(&o.pace, "pace", 20*time.Millisecond, "member tick duty cycle")
	fs.DurationVar(&o.heartbeat, "heartbeat", 250*time.Millisecond, "members' keepalive cadence and the failure detector's expected heartbeat")
	fs.DurationVar(&o.killAfter, "kill-after", 0, "chaos injection: kill the -kill member this long into the run (0 = no kill)")
	fs.StringVar(&o.killName, "kill", "m0", "member name to kill at -kill-after")
	fs.IntVar(&o.budget, "restart-budget", supervise.DefaultRestartBudget, "restarts allowed per member per minute before the run fails")
	fs.Uint64Var(&o.seed, "seed", 1, "PRNG seed; incarnation i of a member runs seed+i")
	return func(out io.Writer) error { return runSupervise(out, o) }
}

// memberArgs is the argv the supervisor re-execs this binary with for
// one incarnation of member m: a `live` cluster member over TCP on m's
// span, bootstrapping from the supervisor's seed address, with
// -replace from the first restart on.
func memberArgs(o superviseOpts, m supervise.Member, seedAddr string, incarnation int) []string {
	args := []string{
		"live", "-transport=tcp", "-backend=agents",
		"-protocol=" + o.protocol,
		"-n=" + strconv.Itoa(o.n),
		fmt.Sprintf("-span=%d:%d", m.Lo, m.Hi),
		"-seeds=" + seedAddr,
		"-ticks=" + strconv.Itoa(o.ticks),
		"-pace=" + o.pace.String(),
		"-reannounce=" + o.heartbeat.String(),
		"-seed=" + strconv.FormatUint(o.seed+uint64(incarnation), 10),
	}
	if incarnation > 0 {
		args = append(args, "-replace")
	}
	return args
}

// convergeBound is the largest rel.err, in percent, a judged row of a
// member may end the run with. The mass audit reuses it: the cluster's
// mass ratio is the mean every estimate converges to, so a ratio drift
// moves every estimate by as much.
const convergeBound = 10.0

// judge reads the rel.err rows a `live` member printed: its `mean
// estimate` row, or a multi member's `aggregate` rows. It returns the
// member's summary row, failed if a row is above convergeBound (or NaN)
// or there is none. A size row is not judged: PCSA over 64 bins reads
// about 40 % high at n ≈ 100, the sketch's bias, not unconvergence.
func judge(protocol, report string) (row string, failed bool) {
	prefix, note := "mean estimate ", ""
	switch protocol {
	case "sketchreset":
		return "not judged: its size estimate is a sketch count, biased high at small n", false
	case "multi":
		prefix, note = "aggregate ", " (its size row is a sketch count, not judged)"
	}
	worst, rows := 0.0, 0
	for _, line := range strings.Split(report, "\n") {
		_, rest, ok := strings.Cut(line, "rel.err ")
		pct, _, _ := strings.Cut(rest, "%")
		v, err := strconv.ParseFloat(pct, 64)
		if !ok || err != nil || !strings.HasPrefix(line, prefix) {
			continue
		}
		if rows++; math.IsNaN(v) || v > worst {
			worst = v
		}
	}
	switch {
	case rows == 0:
		return "FAILED: printed no rel.err row", true
	case !(worst <= convergeBound):
		return fmt.Sprintf("FAILED: rel.err %.2f%% above %.0f%%", worst, convergeBound), true
	}
	return fmt.Sprintf("converged: rel.err %.2f%%%s", worst, note), false
}

// auditMass sums the `mass` rows the members printed (each span's
// endowment and end-of-run census) and judges the cluster's mass ratio
// with chaos.LiveMassAudit. It is not applicable when no member printed
// one: sketchreset and multi have no mass census.
func auditMass(reports []string) (row string, flagged bool) {
	var w0, v0, w1, v1 float64
	rows := 0
	for _, report := range reports {
		for _, line := range strings.Split(report, "\n") {
			var a, b, c, d float64
			if _, err := fmt.Sscanf(line, "mass endowment w %g v %g census w %g v %g", &a, &b, &c, &d); err == nil {
				w0, v0, w1, v1 = w0+a, v0+b, w1+c, v1+d
				rows++
			}
		}
	}
	if rows == 0 {
		return "not applicable", false
	}
	audit := chaos.LiveMassAudit(w0, v0, w1, v1, convergeBound/100)
	row = fmt.Sprintf("ratio %.4f -> %.4f, drift %.3g (tol %g)", v0/w0, v1/w1, audit.MaxDrift, audit.Tolerance)
	if audit.Violations != 0 {
		return row + " FLAGGED", true
	}
	return row, false
}

// runSupervise builds the member fleet, supervises it to completion,
// reports restarts and heal latencies, and fails naming any member
// whose last report judge fails, and the mass audit if it flags. The
// spawner re-execs this binary: `dynaggsim live -transport=tcp
// -span=... -seeds=<sup>`, with -replace added from the first restart
// so the seeds accept the fresh incarnation's address over the dead
// one's.
func runSupervise(out io.Writer, o superviseOpts) error {
	if o.members > o.n {
		return fmt.Errorf("supervise: -members %d exceeds population %d", o.members, o.n)
	}
	// A negative cadence would disable the members' keepalives (or fail
	// every member at start) and turn the run into a restart storm.
	if o.pace < 0 || o.heartbeat < 0 {
		return fmt.Errorf("supervise: -pace and -heartbeat must be >= 0")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("supervise: %w", err)
	}

	// Split [0, n) into -members even spans, the first spans absorbing
	// the remainder.
	members := make([]supervise.Member, o.members)
	per, extra := o.n/o.members, o.n%o.members
	lo := 0
	for i := range members {
		hi := lo + per
		if i < extra {
			hi++
		}
		members[i] = supervise.Member{Name: fmt.Sprintf("m%d", i), Lo: gossip.NodeID(lo), Hi: gossip.NodeID(hi)}
		lo = hi
	}

	var sup *supervise.Supervisor
	var start time.Time
	// Each member's last stdout, read once Run returns: Spawn runs on
	// Run's goroutine, and Run waits for every monitor's copy to end.
	outs := make(map[string]*bytes.Buffer, len(members))
	cfg := supervise.Config{
		Total:         o.n,
		Members:       members,
		Detector:      health.Config{HeartbeatEvery: o.heartbeat},
		RestartBudget: o.budget,
		Spawn: func(m supervise.Member, incarnation int) (*exec.Cmd, error) {
			mo := o
			if incarnation > 0 && o.pace > 0 {
				// A respawn runs the ticks left of the run, so it ends
				// with the survivors instead of alone.
				mo.ticks = max(o.ticks-int(time.Since(start)/o.pace), 1)
			}
			cmd := exec.Command(exe, memberArgs(mo, m, sup.SeedAddr(), incarnation)...)
			// Member reports would interleave with the supervision log;
			// keep them for the judge and the mass audit.
			outs[m.Name] = new(bytes.Buffer)
			cmd.Stdout = outs[m.Name]
			cmd.Stderr = os.Stderr
			return cmd, nil
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) },
	}
	sup, err = supervise.New(cfg)
	if err != nil {
		return err
	}
	defer sup.Close()

	fmt.Fprintf(out, "supervise config: n=%d members=%d protocol=%s ticks=%d pace=%v heartbeat=%v seed=%s\n",
		o.n, o.members, o.protocol, o.ticks, o.pace, o.heartbeat, sup.SeedAddr())
	if o.killAfter > 0 {
		go func() {
			time.Sleep(o.killAfter)
			if err := sup.Kill(o.killName); err != nil {
				fmt.Fprintf(out, "supervise: chaos kill: %v\n", err)
			}
		}()
	}

	start = time.Now()
	runErr := sup.Run(context.Background())
	elapsed := time.Since(start)

	stats := sup.Stats()
	fmt.Fprintf(out, "completed %d  restarts %d  failed %d  elapsed %v\n",
		stats.Completed, stats.Restarts, len(stats.Failed), elapsed.Round(time.Millisecond))
	for _, h := range stats.Heals {
		fmt.Fprintf(out, "heal %-4s incarnation %d  detect %v  recover %v\n",
			h.Member, h.Incarnation, h.DetectLatency().Round(time.Millisecond), h.RecoverLatency().Round(time.Millisecond))
	}
	var failed []string
	reports := make([]string, len(members))
	for i, m := range members {
		reports[i] = outs[m.Name].String()
		row, bad := judge(o.protocol, reports[i])
		fmt.Fprintf(out, "member %-4s %s\n", m.Name, row)
		if bad {
			failed = append(failed, m.Name+" "+row)
		}
	}
	audit, flagged := auditMass(reports)
	fmt.Fprintf(out, "mass audit: %s\n", audit)
	if flagged {
		failed = append(failed, "mass audit "+audit)
	}
	if runErr == nil && len(failed) > 0 {
		runErr = fmt.Errorf("supervise: failed: %s", strings.Join(failed, "; "))
	}
	return runErr
}
