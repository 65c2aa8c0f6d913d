package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/health"
	"dynagg/internal/supervise"
)

// superviseOpts carries the supervise-mode flags: a self-healing
// mini-deployment in one command. The supervisor binds the bootstrap
// seed, re-execs this binary as `live` cluster members (one per span),
// watches their keepalive heartbeats through the failure detector, and
// restarts any member it pronounces dead — optionally after murdering
// one on cue to demonstrate the heal.
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
	fs.StringVar(&o.protocol, "protocol", "pushsum", "protocol each member runs (see live -h)")
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

// runSupervise builds the member fleet, supervises it to completion,
// and reports restarts and heal latencies. The spawner re-execs this
// same binary: `dynaggsim live -transport=tcp -span=... -seeds=<sup>`,
// with -replace added from the first restart so the seeds accept the
// fresh incarnation's address over the dead one's.
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
	cfg := supervise.Config{
		Total:         o.n,
		Members:       members,
		Detector:      health.Config{HeartbeatEvery: o.heartbeat},
		RestartBudget: o.budget,
		Spawn: func(m supervise.Member, incarnation int) (*exec.Cmd, error) {
			cmd := exec.Command(exe, memberArgs(o, m, sup.SeedAddr(), incarnation)...)
			// Member reports would interleave with the supervision log;
			// drop them and keep stderr for member errors.
			cmd.Stdout = io.Discard
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

	start := time.Now()
	runErr := sup.Run(context.Background())
	elapsed := time.Since(start)

	stats := sup.Stats()
	fmt.Fprintf(out, "completed %d  restarts %d  failed %d  elapsed %v\n",
		stats.Completed, stats.Restarts, len(stats.Failed), elapsed.Round(time.Millisecond))
	for _, h := range stats.Heals {
		fmt.Fprintf(out, "heal %-4s incarnation %d  detect %v  recover %v\n",
			h.Member, h.Incarnation, h.DetectLatency().Round(time.Millisecond), h.RecoverLatency().Round(time.Millisecond))
	}
	return runErr
}
