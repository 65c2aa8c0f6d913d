// live_udp demonstrates the live engine as a real distributed system:
// one gossip population split across TWO OS PROCESSES, every
// cross-host message traveling as a wire-encoded UDP datagram over
// loopback. The parent process drives hosts [0, n/2), re-executes
// itself as a child driving [n/2, n), and the two exchange socket
// addresses through the child's stdio before running concurrently.
//
// Run it with:
//
//	go run ./examples/live_udp
//
// It executes Push-Sum (Push-Sum-Revert at λ = 0) and
// Count-Sketch-Reset (dynamic counting) back to back, printing each
// process's view and the combined estimate against the truth.
// Estimates land within a few percent for Push-Sum and within the
// sketch's expected error for Count-Sketch-Reset — across a process
// boundary neither protocol can see.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

const (
	hosts = 64
	ticks = 50
	pace  = 4 * time.Millisecond
	seed  = 7
)

func main() {
	role := flag.String("role", "parent", "internal: parent or child")
	proto := flag.String("proto", "", "internal: protocol for the child role")
	peer := flag.String("peer", "", "internal: parent group address for the child role")
	flag.Parse()
	if *role == "child" {
		if err := runChild(*proto, *peer); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, proto := range []string{"pushsum", "sketchreset"} {
		if err := runParent(proto); err != nil {
			log.Fatal(err)
		}
	}
}

// newTransport builds one process's UDP transport: two host groups,
// the given one bound locally on an ephemeral loopback port.
func newTransport(local int) (*transport.UDP, error) {
	groups := []transport.Group{{Lo: 0, Hi: hosts / 2}, {Lo: hosts / 2, Hi: hosts}}
	groups[local].Addr = "127.0.0.1:0"
	return transport.NewUDP(
		transport.WithGroups(groups...),
		transport.WithLocal(local),
	)
}

// newEngine assembles the live engine for one span of the population.
func newEngine(proto string, span live.Span, tr transport.Transport) (*live.Engine, error) {
	agents := make([]gossip.Agent, span.Hi-span.Lo)
	for i := range agents {
		id := span.Lo + gossip.NodeID(i)
		switch proto {
		case "pushsum":
			agents[i] = pushsumrevert.New(id, float64(int(id)%100), pushsumrevert.Config{Lambda: 0})
		case "sketchreset":
			agents[i] = sketchreset.New(id, sketchreset.Config{
				Params: sketch.Params{Bins: 32, Levels: 16}, Identifiers: 1,
			})
		default:
			return nil, fmt.Errorf("unknown protocol %q", proto)
		}
	}
	return live.New(live.Config{
		Env: env.NewUniform(hosts), Population: live.NewAgentPopulation(agents),
		Model: gossip.Push, Seed: seed, Ticks: ticks, TickEvery: pace,
		Transport: tr, Span: span,
	})
}

func truth(proto string) float64 {
	if proto == "sketchreset" {
		return hosts
	}
	var sum float64
	for i := 0; i < hosts; i++ {
		sum += float64(i % 100)
	}
	return sum / hosts
}

func mean(ests []float64) (float64, int) {
	var m float64
	for _, v := range ests {
		m += v
	}
	if len(ests) > 0 {
		m /= float64(len(ests))
	}
	return m, len(ests)
}

// runParent binds its half, spawns the child with the parent's socket
// address, learns the child's address from its stdout, releases it,
// and runs its own engine concurrently with the child process.
func runParent(proto string) error {
	tr, err := newTransport(0)
	if err != nil {
		return err
	}
	defer tr.Close()

	child := exec.Command(os.Args[0], "-role=child", "-proto="+proto, "-peer="+tr.GroupAddr(0))
	child.Stderr = os.Stderr
	stdin, err := child.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := child.StdoutPipe()
	if err != nil {
		return err
	}
	if err := child.Start(); err != nil {
		return fmt.Errorf("spawning child process: %w", err)
	}
	lines := bufio.NewScanner(stdout)

	// Handshake: the child binds an ephemeral port and reports it;
	// only then can the parent aim datagrams at the child's half.
	addr, err := expect(lines, "ADDR")
	if err != nil {
		return err
	}
	if err := tr.SetGroupAddr(1, addr); err != nil {
		return err
	}
	if _, err := io.WriteString(stdin, "GO\n"); err != nil {
		return err
	}

	engine, err := newEngine(proto, live.Span{Lo: 0, Hi: hosts / 2}, tr)
	if err != nil {
		return err
	}
	if err := engine.Run(context.Background()); err != nil {
		return err
	}
	meanA, countA := mean(engine.Estimates())

	report, err := expect(lines, "MEAN")
	if err != nil {
		return err
	}
	var meanB float64
	var countB int
	if _, err := fmt.Sscanf(report, "%g %d", &meanB, &countB); err != nil {
		return fmt.Errorf("parsing child report %q: %w", report, err)
	}
	if err := child.Wait(); err != nil {
		return fmt.Errorf("child process: %w", err)
	}

	combined := (meanA*float64(countA) + meanB*float64(countB)) / float64(countA+countB)
	want := truth(proto)
	fmt.Printf("%s over UDP across two processes (n=%d, %d ticks @ %v):\n", proto, hosts, ticks, pace)
	fmt.Printf("  parent  pid %-6d hosts [0,%d)  mean %8.3f   sent %d dropped %d\n",
		os.Getpid(), hosts/2, meanA, engine.Sent(), engine.Dropped())
	fmt.Printf("  child   pid %-6d hosts [%d,%d) mean %8.3f\n",
		child.Process.Pid, hosts/2, hosts, meanB)
	fmt.Printf("  combined mean %.3f, truth %.3f (%.1f%% off)\n\n",
		combined, want, 100*abs(combined-want)/want)
	return nil
}

// runChild is the other half of the population: bind, report the
// socket address, wait for the parent's release, run, report results.
func runChild(proto, peer string) error {
	tr, err := newTransport(1)
	if err != nil {
		return err
	}
	defer tr.Close()
	if err := tr.SetGroupAddr(0, peer); err != nil {
		return err
	}
	fmt.Printf("ADDR %s\n", tr.GroupAddr(1))

	release := bufio.NewScanner(os.Stdin)
	if !release.Scan() || release.Text() != "GO" {
		return fmt.Errorf("child: expected GO on stdin, got %q", release.Text())
	}

	engine, err := newEngine(proto, live.Span{Lo: hosts / 2, Hi: hosts}, tr)
	if err != nil {
		return err
	}
	if err := engine.Run(context.Background()); err != nil {
		return err
	}
	m, count := mean(engine.Estimates())
	fmt.Printf("MEAN %g %d\n", m, count)
	return nil
}

// expect reads lines until one starts with the given tag, returning
// the remainder of that line.
func expect(lines *bufio.Scanner, tag string) (string, error) {
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), tag+" "); ok {
			return rest, nil
		}
	}
	return "", fmt.Errorf("child exited before printing %s (%v)", tag, lines.Err())
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
