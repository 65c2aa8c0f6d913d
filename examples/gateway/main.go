// gateway demonstrates the observer-span query front end: a worker
// population split across THREE OS PROCESSES gossips the multi
// protocol (one shared size sketch + named Push-Sum-Revert aggregates)
// over TCP, and a gateway joins it as a fourth participant holding
// ZERO mass — an observer span above the counted population. The
// gateway converges to the population's estimates exactly like any
// host, so HTTP reads are answered from local state: no fan-out, no
// query flooding — the paper's point that after convergence the answer
// is already everywhere.
//
// Run it with:
//
//	go run ./examples/gateway [-load-duration 5s]
//
// The launcher spawns the three workers (who bootstrap membership from
// a static seed address, as `dynaggsim live -seeds` members do), then
// joins as the observer, waits for reads to converge, registers a NEW
// aggregate through POST /aggregate/cpu and watches it propagate into
// the worker population and back, and finally runs a load smoke
// against the HTTP API before shutting everything down cleanly.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gateway"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

const (
	workers = 48
	members = 3
	pace    = 4 * time.Millisecond
)

var names = []string{"load", "temp"}

func main() {
	role := flag.String("role", "launcher", "internal: launcher or member")
	span := flag.String("span", "", "internal: member host range lo:hi")
	listen := flag.String("listen", "127.0.0.1:0", "internal: member listen address")
	seeds := flag.String("seeds", "", "internal: bootstrap seed address list")
	loadDur := flag.Duration("load-duration", 2*time.Second, "load-smoke window against the gateway API")
	flag.Parse()
	var err error
	if *role == "member" {
		err = runMember(*span, *listen, *seeds)
	} else {
		err = runLauncher(*loadDur)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// reserveAddr picks a free loopback port for the seed member by
// binding an ephemeral listener and releasing it. The seed member
// re-binds the same port moments later; every member is handed this
// one address up front, which is what a deployment's static seed list
// looks like.
func reserveAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func runLauncher(loadDur time.Duration) error {
	seedAddr, err := reserveAddr()
	if err != nil {
		return err
	}

	// Spawn the worker members; they tick until we signal them down.
	procs := make([]*exec.Cmd, members)
	for i := 0; i < members; i++ {
		span := fmt.Sprintf("%d:%d", i*workers/members, (i+1)*workers/members)
		listen := "127.0.0.1:0"
		if i == 0 {
			listen = seedAddr
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
		procs[i] = cmd
		go func(i int, sc *bufio.Scanner) {
			for sc.Scan() {
				fmt.Printf("member %d: %s\n", i, sc.Text())
			}
		}(i, bufio.NewScanner(stdout))
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Signal(os.Interrupt)
			}
		}
		for i, p := range procs {
			if err := p.Wait(); err != nil {
				fmt.Printf("member %d exit: %v\n", i, err)
			}
		}
	}()

	// Join as the observer span and serve HTTP.
	gw, err := gateway.New(gateway.Config{
		Workers:    workers,
		Seeds:      []string{seedAddr},
		Aggregates: names,
		TickEvery:  pace,
		Seed:       99,
		Replace:    true,
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		gw.Wait()
	}()
	if err := gw.Start(ctx); err != nil {
		return fmt.Errorf("gateway bootstrap: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go gw.Serve(ctx, ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("gateway: observer span [%d,%d) joined via %s, serving %s\n",
		workers, workers+1, seedAddr, base)

	// Reads 503 until converged, then return the population's answers.
	for _, name := range names {
		body, err := waitConverged(base, name, gateway.DemoMean(name, workers))
		if err != nil {
			return err
		}
		fmt.Printf("GET /aggregate/%-5s → average %.3f (truth %.3f)  size %.1f  staleness %d ticks\n",
			name, body.Average, gateway.DemoMean(name, workers), body.Size, body.Staleness)
	}

	// Dynamic registration: POST a new name, watch it gossip out to the
	// workers (whose resolvers supply real values) and converge back.
	resp, err := http.Post(base+"/aggregate/cpu", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Printf("POST /aggregate/cpu → %d\n", resp.StatusCode)
	body, err := waitConverged(base, "cpu", gateway.DemoMean("cpu", workers))
	if err != nil {
		return err
	}
	fmt.Printf("GET /aggregate/cpu   → average %.3f (truth %.3f) after propagation\n",
		body.Average, gateway.DemoMean("cpu", workers))

	// Load smoke: closed-loop reads must all succeed while gossip keeps
	// ticking underneath.
	rep, err := gateway.RunLoad(ctx, gateway.LoadConfig{
		URL:      base + "/aggregate/load",
		Clients:  8,
		Duration: loadDur,
	})
	if err != nil {
		return err
	}
	fmt.Printf("load smoke: %s\n", rep)
	if rep.Requests == 0 {
		return fmt.Errorf("load smoke completed zero successful reads")
	}
	if rep.Errors > 0 {
		return fmt.Errorf("load smoke saw %d errors", rep.Errors)
	}
	fmt.Println("gateway example OK")
	return nil
}

// aggBody mirrors the gateway's GET /aggregate/{name} response.
type aggBody struct {
	Name      string  `json:"name"`
	Average   float64 `json:"average"`
	Sum       float64 `json:"sum"`
	Size      float64 `json:"size"`
	Tick      int     `json:"tick"`
	Staleness int     `json:"staleness_ticks"`
}

// waitConverged polls one aggregate until the gateway serves it within
// 30% (±0.5 floor) of the expected population mean.
func waitConverged(base, name string, want float64) (aggBody, error) {
	tol := 0.30 * math.Abs(want)
	if tol < 0.5 {
		tol = 0.5
	}
	deadline := time.Now().Add(30 * time.Second)
	var last aggBody
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/aggregate/" + name)
		if err != nil {
			return last, err
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&last); err != nil {
				resp.Body.Close()
				return last, err
			}
			resp.Body.Close()
			if math.Abs(last.Average-want) <= tol {
				return last, nil
			}
		} else {
			resp.Body.Close()
		}
		time.Sleep(25 * time.Millisecond)
	}
	return last, fmt.Errorf("aggregate %q never converged (last %+v, want ≈ %v)", name, last, want)
}

// runMember is one worker process: multi protocol over its span, env
// sized with one observer slot above the counted population, ticking
// until SIGINT.
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
		values := make(map[string]float64, len(names))
		for _, name := range names {
			values[name] = gateway.DemoValue(name, int(id))
		}
		node := multi.New(id, values,
			sketchreset.Config{Params: sketch.DefaultParams},
			pushsumrevert.Config{Lambda: gateway.DefaultLambda},
		)
		hostID := int(id)
		node.SetResolver(func(name string) (float64, bool) {
			return gateway.DemoValue(name, hostID), true
		})
		agents[i] = node
	}
	engine, err := live.New(live.Config{
		// One slot above the counted population: the gateway's observer
		// span, which peers gossip with but bootstrap does not wait for.
		Env:        env.NewUniform(workers + 1),
		Population: live.NewAgentPopulation(agents),
		Model:      gossip.Push, Seed: uint64(31 + lo), Ticks: live.Forever,
		TickEvery: pace, Workers: 4,
		Transport: tr, Span: span,
		Bootstrap: &live.Bootstrap{
			Seeds: strings.Split(seeds, ","), Span: span, Total: workers,
			Retry: 50 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := signalContext()
	defer cancel()
	fmt.Printf("span [%d,%d) up\n", lo, hi)
	if err := engine.Run(ctx); err != nil && err != context.Canceled {
		return err
	}
	fmt.Printf("span [%d,%d) down cleanly, sent %d dropped %d\n",
		lo, hi, engine.Sent(), engine.Dropped())
	return nil
}
