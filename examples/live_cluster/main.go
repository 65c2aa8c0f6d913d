// live_cluster demonstrates bootstrap membership over the TCP
// transport: one gossip population split across THREE OS PROCESSES
// that find each other from a static seed address — no parent-process
// coordination, no stdio handshake. Compare examples/live_udp, where
// the parent must shuttle ephemeral socket addresses through the
// child's stdin/stdout before any datagram can flow: here every member
// is started with the same seed list, announces its own [Lo,Hi) host
// range to it, and blocks until the whole population is mapped
// (live.Bootstrap). Members can start in any order; one that comes up
// before the seed simply retries until the seed exists.
//
// Run it with:
//
//	go run ./examples/live_cluster
//
// The launcher process only spawns the three members and reads their
// result lines — it takes no part in membership. Each member runs
// Push-Sum (Push-Sum-Revert at λ = 0) over its 32-host span and
// reports its span's mean estimate; all three must land on the
// population mean within a few percent, across two process boundaries
// neither host can see.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
)

const (
	hosts   = 96
	members = 3
	ticks   = 60
	pace    = 4 * time.Millisecond
	seed    = 7
)

func main() {
	role := flag.String("role", "launcher", "internal: launcher or member")
	span := flag.String("span", "", "internal: member host range lo:hi")
	listen := flag.String("listen", "127.0.0.1:0", "internal: member listen address")
	seeds := flag.String("seeds", "", "internal: bootstrap seed address list")
	flag.Parse()
	var err error
	if *role == "member" {
		err = runMember(*span, *listen, *seeds)
	} else {
		err = runLauncher()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func truth() float64 {
	var sum float64
	for i := 0; i < hosts; i++ {
		sum += float64(i % 100)
	}
	return sum / hosts
}

// reserveAddr picks a free loopback port for the seed member by
// binding an ephemeral listener and releasing it. The seed member
// re-binds the same port moments later; every member is handed this
// one address up front, which is exactly what a deployment's static
// seed list looks like.
func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// runLauncher spawns the three member processes and verifies their
// reports. It never touches the transport: the members coordinate
// entirely among themselves through the seed address.
func runLauncher() error {
	seedAddr, err := reserveAddr()
	if err != nil {
		return err
	}

	type report struct {
		lo, hi        int
		mean          float64
		sent, dropped int64
	}
	reports := make([]report, members)
	procs := make([]*exec.Cmd, members)
	outs := make([]*bufio.Scanner, members)
	for i := 0; i < members; i++ {
		span := fmt.Sprintf("%d:%d", i*hosts/members, (i+1)*hosts/members)
		listen := "127.0.0.1:0"
		if i == 0 {
			listen = seedAddr // the seed member serves the advertised address
		}
		cmd := exec.Command(os.Args[0], "-role=member",
			"-span="+span, "-listen="+listen, "-seeds="+seedAddr)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning member %d: %w", i, err)
		}
		procs[i], outs[i] = cmd, bufio.NewScanner(stdout)
	}

	for i, sc := range outs {
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "MEMBER ") {
				fmt.Println(line) // pass through member chatter
				continue
			}
			r := &reports[i]
			if _, err := fmt.Sscanf(line, "MEMBER %d %d %g %d %d",
				&r.lo, &r.hi, &r.mean, &r.sent, &r.dropped); err != nil {
				return fmt.Errorf("parsing member %d report %q: %w", i, line, err)
			}
			found = true
		}
		if err := procs[i].Wait(); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
		if !found {
			return fmt.Errorf("member %d exited without a MEMBER report", i)
		}
	}

	want := truth()
	fmt.Printf("pushsum over TCP across %d processes bootstrapped from %s (n=%d, %d ticks @ %v):\n",
		members, seedAddr, hosts, ticks, pace)
	failed := false
	for i, r := range reports {
		off := 100 * math.Abs(r.mean-want) / want
		fmt.Printf("  member %d  pid %-6d hosts [%d,%d)  mean %8.3f (%.1f%% off)  sent %d dropped %d\n",
			i, procs[i].Process.Pid, r.lo, r.hi, r.mean, off, r.sent, r.dropped)
		if off > 10 {
			failed = true
		}
	}
	fmt.Printf("  truth %.3f\n", want)
	if failed {
		return fmt.Errorf("a member's span failed to converge to the population mean")
	}
	return nil
}

// runMember is one cluster process: bind the span's listener, let the
// engine bootstrap membership from the seed list, run, report.
func runMember(spanArg, listen, seeds string) error {
	var lo, hi int
	if _, err := fmt.Sscanf(spanArg, "%d:%d", &lo, &hi); err != nil {
		return fmt.Errorf("member: bad -span %q: %w", spanArg, err)
	}
	span := live.Span{Lo: gossip.NodeID(lo), Hi: gossip.NodeID(hi)}

	tr, err := transport.NewTCP(
		transport.WithGroups(transport.Group{Lo: span.Lo, Hi: span.Hi, Addr: listen}),
		transport.WithLocal(0),
	)
	if err != nil {
		return err
	}
	defer tr.Close()

	agents := make([]gossip.Agent, hi-lo)
	for i := range agents {
		id := span.Lo + gossip.NodeID(i)
		agents[i] = pushsumrevert.New(id, float64(int(id)%100), pushsumrevert.Config{Lambda: 0})
	}
	engine, err := live.New(live.Config{
		Env: env.NewUniform(hosts), Population: live.NewAgentPopulation(agents),
		Model: gossip.Push, Seed: seed, Ticks: ticks, TickEvery: pace,
		Transport: tr, Span: span,
		Bootstrap: &live.Bootstrap{
			Seeds: strings.Split(seeds, ","), Span: span, Total: hosts,
			Retry: 50 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	if err := engine.Run(context.Background()); err != nil {
		return err
	}

	var mean float64
	ests := engine.Estimates()
	for _, v := range ests {
		mean += v
	}
	if len(ests) > 0 {
		mean /= float64(len(ests))
	}
	fmt.Printf("MEMBER %d %d %g %d %d\n", lo, hi, mean, engine.Sent(), engine.Dropped())
	return nil
}
