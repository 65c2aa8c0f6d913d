package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
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
	"dynagg/internal/sysmem"
)

// liveOpts parametrizes the `live` experiment: run a protocol on the
// asynchronous live engine over a selectable transport and backend,
// optionally with injected loss — the knob set of live.Config surfaced
// on the command line.
type liveOpts struct {
	protocol   string // pushsum (revert at λ = 0) | revert | sketchreset | multi
	columnar   bool   // -backend: agents (false) | columnar
	transport  string // chan | udp | tcp
	loss       float64
	wan        string // canned WAN preset name, or ""
	groups     int
	pace       time.Duration
	n          int
	ticks      int
	workers    int
	seed       uint64
	rcvbuf     int           // SO_RCVBUF for UDP sockets; 0 = auto
	seeds      string        // comma-separated TCP bootstrap seed addrs; "" = single process
	span       string        // this process's host range "lo:hi"; "" = full population
	listen     string        // TCP listen address for the span's group; "" = 127.0.0.1:0
	replace    bool          // announce with restart semantics (supervised respawn)
	reannounce time.Duration // keepalive cadence; 0 = the bootstrap default

	// multi-protocol knobs: the named aggregates every host registers
	// (with gateway.DemoValue values) and how many environment slots
	// above n are reserved for observer spans — gateway processes —
	// that peers gossip with but the bootstrap does not wait for.
	aggregates    string
	observerSlots int
}

func liveFlags(fs *flag.FlagSet) func(io.Writer) error {
	var o liveOpts
	fs.StringVar(&o.protocol, "protocol", "pushsum", "protocol: pushsum, revert, sketchreset, multi (pushsum is revert at λ = 0)")
	backendVar(fs, &o.columnar)
	fs.StringVar(&o.transport, "transport", "chan", "transport: chan (in-process channels), udp (wire-encoded loopback datagrams), or tcp (length-prefixed frames over cached connections)")
	fs.Float64Var(&o.loss, "loss", 0, "per-message drop probability injected over the transport")
	fs.StringVar(&o.wan, "wan", "", "canned WAN preset layered over the transport: lan, 3g, or sat (loss+delay+jitter; mutually exclusive with -loss)")
	countVar(fs, &o.groups, "udp-groups", 4, "UDP/TCP loopback transports: host group `count` (= sockets/listeners)")
	fs.DurationVar(&o.pace, "pace", 0, "tick duty cycle; 0 = free-running (sketchreset, multi, and agents over tcp default to 4ms)")
	countVar(fs, &o.n, "n", 256, "host `count`")
	countVar(fs, &o.ticks, "ticks", 60, "tick `count` per host")
	workersVar(fs, &o.workers, "goroutines ticking the hosts: 0 one per host (agents) or per group (columnar), -1 one per CPU, k>0 at most k")
	fs.Uint64Var(&o.seed, "seed", 1, "PRNG seed")
	fs.IntVar(&o.rcvbuf, "rcvbuf", 0, "UDP socket receive buffer in bytes; 0 = auto (4 MiB for the columnar backend)")
	fs.StringVar(&o.seeds, "seeds", "", "TCP bootstrap: comma-separated seed addresses shared by every process of the deployment (requires -span and -transport=tcp)")
	fs.StringVar(&o.span, "span", "", "TCP bootstrap: this process's host range lo:hi of the -n population (requires -seeds)")
	fs.StringVar(&o.listen, "listen", "", "TCP listen address for this process's span; default 127.0.0.1:0 (a seed process must listen on its advertised seed address)")
	fs.BoolVar(&o.replace, "replace", false, "cluster member: announce with restart semantics — seeds update a stale registration of this span to our address instead of reporting a conflict (set by the supervisor on respawns)")
	fs.DurationVar(&o.reannounce, "reannounce", 0, "cluster member: keepalive re-announce cadence, the failure detector's heartbeat (0 = 1s default)")
	fs.StringVar(&o.aggregates, "aggregates", "load", "-protocol=multi: comma-separated aggregate names (hosts register gateway.DemoValue per name)")
	fs.IntVar(&o.observerSlots, "observer-slots", 0, "cluster member: extra environment slots above -n reserved for observer spans (gateway processes); every process of a deployment must agree")
	return func(out io.Writer) error { return runLive(out, o) }
}

// parseSpan parses the -span flag's "lo:hi" form against the
// population size.
func parseSpan(s string, n int) (live.Span, error) {
	loS, hiS, ok := strings.Cut(s, ":")
	if !ok {
		return live.Span{}, fmt.Errorf("live: -span must be lo:hi, got %q", s)
	}
	lo, err1 := strconv.Atoi(strings.TrimSpace(loS))
	hi, err2 := strconv.Atoi(strings.TrimSpace(hiS))
	if err1 != nil || err2 != nil {
		return live.Span{}, fmt.Errorf("live: -span must be lo:hi, got %q", s)
	}
	if lo < 0 || lo >= hi || hi > n {
		return live.Span{}, fmt.Errorf("live: -span [%d,%d) outside population [0,%d)", lo, hi, n)
	}
	return live.Span{Lo: gossip.NodeID(lo), Hi: gossip.NodeID(hi)}, nil
}

// resolveLossTransport layers -wan / -loss over a base transport: the
// two flags are mutually exclusive (a preset already sets a loss
// rate), unknown preset names list the valid ones, and a loss rate
// outside [0,1] is refused by NewLossy. It returns the (possibly
// wrapped) transport and the effective injected loss rate.
func resolveLossTransport(tr transport.Transport, wan string, loss float64, seed uint64) (transport.Transport, float64, error) {
	opt := transport.WithLoss(loss)
	switch {
	case wan != "" && loss != 0:
		return nil, 0, fmt.Errorf("-wan and -loss are mutually exclusive (the preset already sets a loss rate)")
	case wan != "":
		p, ok := transport.ProfileByName(wan)
		if !ok {
			return nil, 0, fmt.Errorf("unknown -wan preset %q (%s)", wan, strings.Join(transport.ProfileNames(), ", "))
		}
		opt, loss = transport.WithProfile(p), p.Loss
	case loss == 0:
		return tr, 0, nil
	}
	lt, err := transport.NewLossy(tr, opt, transport.WithLossSeed(seed))
	if err != nil {
		return nil, 0, err
	}
	return lt, loss, nil
}

// runLive executes one live-engine run and prints a small report:
// the resolved configuration, the mean estimate against the truth,
// the transport's sent/dropped books, throughput, and peak RSS.
func runLive(out io.Writer, o liveOpts) error {
	// Count-Sketch-Reset bounds counter ages assuming loosely equal
	// iteration rates across the population, so it defaults to a paced
	// duty cycle; the mass protocols are rate-independent and default
	// to free-running.
	if o.pace == 0 && (o.protocol == "sketchreset" || o.protocol == "multi") {
		o.pace = 4 * time.Millisecond
	}
	// TCP sends queue for an asynchronous writer goroutine, so a
	// free-running agent population finishes its ticks before the first
	// dial completes and most traffic drops on the outbox. Pace it like
	// a deployed duty cycle by default (columnar drains batches inline
	// per shard wave and keeps up unpaced).
	if o.pace == 0 && o.transport == "tcp" && !o.columnar {
		o.pace = 4 * time.Millisecond
	}

	cluster := o.seeds != "" || o.span != ""
	var span live.Span
	if cluster {
		if o.seeds == "" || o.span == "" {
			return fmt.Errorf("live: -seeds and -span must be set together (each process announces its span to the shared seed list)")
		}
		if o.transport != "tcp" {
			return fmt.Errorf("live: -seeds/-span require -transport=tcp (bootstrap is the TCP membership layer; UDP spans exchange addresses out of band)")
		}
		if o.columnar {
			return fmt.Errorf("live: the columnar backend drives the full population in one process; -seeds/-span need -backend=agents")
		}
		var err error
		if span, err = parseSpan(o.span, o.n); err != nil {
			return err
		}
	}
	if o.listen != "" && o.transport != "tcp" {
		return fmt.Errorf("live: -listen applies only to -transport=tcp")
	}
	if (o.replace || o.reannounce != 0) && !cluster {
		return fmt.Errorf("live: -replace and -reannounce apply only to cluster members (-seeds/-span)")
	}

	if o.observerSlots < 0 {
		return fmt.Errorf("live: -observer-slots must be >= 0, got %d", o.observerSlots)
	}
	if o.observerSlots > 0 && !cluster {
		return fmt.Errorf("live: -observer-slots only makes sense for a cluster member (-seeds/-span); a single-process run has no observer processes to reserve slots for")
	}

	// Observer slots sit above the counted population: peers pick them
	// (mass flows through gateways), the bootstrap does not wait for
	// them (Total stays o.n).
	u := env.NewUniform(o.n + o.observerSlots)
	values := make([]float64, o.n)
	var sum float64
	for i := range values {
		values[i] = float64(i % 100)
		sum += values[i]
	}
	// The full-size sketch matrix is 1536 counters per host — 3 GiB of
	// double-buffered columns at a million hosts — so large columnar
	// counting runs shrink the sketch the same way the engine bench
	// does.
	sketchParams := sketch.DefaultParams
	if o.columnar && o.n > 200_000 {
		sketchParams = benchSketchParams
	}

	// Push-Sum is Push-Sum-Revert at λ = 0.
	revertCfg := pushsumrevert.Config{Lambda: 0.01}
	if o.protocol == "pushsum" {
		revertCfg.Lambda = 0
	}

	var pop live.Population
	var truth float64
	if !o.columnar {
		agents := make([]gossip.Agent, o.n)
		switch o.protocol {
		case "pushsum", "revert":
			for i := 0; i < o.n; i++ {
				agents[i] = pushsumrevert.New(gossip.NodeID(i), values[i], revertCfg)
			}
			truth = sum / float64(o.n)
		case "sketchreset":
			for i := 0; i < o.n; i++ {
				agents[i] = sketchreset.New(gossip.NodeID(i), sketchreset.Config{
					Params: sketchParams, Identifiers: 1,
				})
			}
			truth = float64(o.n)
		case "multi":
			names := splitNames(o.aggregates)
			if len(names) == 0 {
				return fmt.Errorf("live: -protocol=multi needs -aggregates (comma-separated names)")
			}
			for i := 0; i < o.n; i++ {
				vals := make(map[string]float64, len(names))
				for _, name := range names {
					vals[name] = gateway.DemoValue(name, i)
				}
				node := multi.New(gossip.NodeID(i), vals,
					sketchreset.Config{Params: sketchParams},
					pushsumrevert.Config{Lambda: gateway.DefaultLambda},
				)
				// A resolver lets dynamically registered names (a
				// gateway's POST /aggregate/{name}) reach this host with
				// a real local value instead of being ignored.
				hostID := i
				node.SetResolver(func(name string) (float64, bool) {
					return gateway.DemoValue(name, hostID), true
				})
				agents[i] = node
			}
			// multi's Estimate is the sketch network-size estimate.
			truth = float64(o.n)
		default:
			return fmt.Errorf("live: unknown -protocol %q (pushsum, revert, sketchreset, multi)", o.protocol)
		}
		if cluster {
			// This process drives only its span; the other spans'
			// agents live in the other processes of the deployment.
			agents = agents[span.Lo:span.Hi]
		}
		pop = live.NewAgentPopulation(agents)
	} else {
		switch o.protocol {
		case "multi":
			return fmt.Errorf("live: -protocol=multi requires -backend=agents (no columnar form yet)")
		case "pushsum", "revert":
			pop = live.NewColumnarPopulation(pushsumrevert.NewColumnar(values, revertCfg))
			truth = sum / float64(o.n)
		case "sketchreset":
			pop = live.NewColumnarPopulation(sketchreset.NewColumnar(o.n, sketchreset.Config{
				Params: sketchParams, Identifiers: 1,
			}))
			truth = float64(o.n)
		default:
			return fmt.Errorf("live: unknown -protocol %q (pushsum, revert, sketchreset)", o.protocol)
		}
	}

	rcvbuf, queue := o.rcvbuf, 0
	if o.columnar {
		// A whole shard's wave lands on one socket between drains;
		// give the kernel room for it.
		if rcvbuf == 0 {
			rcvbuf = 4 << 20
		}
		// A columnar tick arrives at each group as one burst of
		// whole-shard batches; the default 256-batch queue sheds most
		// of a million-host wave, so give the socket transports' drains
		// a tick's worth of headroom (~64 MiB of pooled buffers worst
		// case).
		queue = 1024
	}
	var tr transport.Transport
	switch o.transport {
	case "chan":
		// Group count doubles as the columnar shard count; the agents
		// backend only uses the per-host plane, which it does not shape.
		tr = transport.NewChannelGroups(o.n, 0, o.groups)
	case "udp":
		udp, err := transport.NewUDP(
			transport.WithLoopbackGroups(o.n, o.groups),
			transport.WithReadBuffer(rcvbuf),
			transport.WithQueueCapacity(queue),
		)
		if err != nil {
			return err
		}
		defer udp.Close()
		tr = udp
	case "tcp":
		var tcp *transport.TCP
		var err error
		if cluster {
			listen := o.listen
			if listen == "" {
				listen = "127.0.0.1:0"
			}
			tcp, err = transport.NewTCP(
				transport.WithGroups(transport.Group{Lo: span.Lo, Hi: span.Hi, Addr: listen}),
				transport.WithLocal(0),
				transport.WithQueueCapacity(queue),
			)
		} else {
			tcp, err = transport.NewTCP(
				transport.WithLoopbackGroups(o.n, o.groups),
				transport.WithQueueCapacity(queue),
			)
		}
		if err != nil {
			return err
		}
		defer tcp.Close()
		tr = tcp
	default:
		return fmt.Errorf("live: unknown -transport %q (chan, udp, tcp)", o.transport)
	}
	tr, injectedLoss, err := resolveLossTransport(tr, o.wan, o.loss, o.seed+1)
	if err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if lt, ok := tr.(*transport.Lossy); ok {
		defer lt.Close()
	}

	cfg := live.Config{
		Env: u, Population: pop, Model: gossip.Push, Seed: o.seed,
		Ticks: o.ticks, Workers: o.workers, Transport: tr, TickEvery: o.pace,
	}
	var selfAddr string
	if cluster {
		cfg.Span = span
		cfg.Bootstrap = &live.Bootstrap{
			Seeds: splitNames(o.seeds), Span: span, Total: o.n,
			Replace: o.replace, ReAnnounce: o.reannounce,
		}
		// Our own group is table index 0 at construction, but merging a
		// seed's membership can insert lower spans and shift it — so the
		// listen address must be captured before Run bootstraps.
		tcp, _ := transport.AsTCP(tr)
		selfAddr = tcp.GroupAddr(0)
	}
	e, err := live.New(cfg)
	if err != nil {
		return err
	}

	name := o.transport
	if o.wan != "" {
		name += "+" + o.wan
	}
	lossNote := ""
	if o.transport == "tcp" && injectedLoss > 0 {
		// On a stream transport an injected "datagram loss" severs the
		// carrying connection instead of silently dropping a frame.
		lossNote = " (tcp: link-kill)"
	}
	backend := "agents"
	if o.columnar {
		backend = "columnar"
	}
	fmt.Fprintf(out, "live config: protocol=%s backend=%s transport=%s n=%d ticks=%d groups=%d\n",
		o.protocol, backend, name, o.n, o.ticks, o.groups)
	fmt.Fprintf(out, "             loss=%.4f%s pace=%v workers=%d seed=%d rcvbuf=%d\n",
		injectedLoss, lossNote, o.pace, o.workers, o.seed, rcvbuf)
	if cluster {
		fmt.Fprintf(out, "bootstrap:   span [%d,%d) listening on %s  seeds %s\n",
			span.Lo, span.Hi, selfAddr, o.seeds)
	}

	start := time.Now()
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	elapsed := time.Since(start)

	ests := e.Estimates()
	var mean float64
	for _, v := range ests {
		mean += v
	}
	if len(ests) > 0 {
		mean /= float64(len(ests))
	}
	rss := sysmem.PeakRSSBytes()
	if tcp, ok := transport.AsTCP(tr); ok && cluster {
		// The resolved view the bootstrap converged on: every span of
		// the population and the address serving it.
		fmt.Fprintf(out, "membership: ")
		for i, g := range tcp.Groups() {
			if i > 0 {
				fmt.Fprintf(out, "  ")
			}
			fmt.Fprintf(out, "[%d,%d)@%s", g.Lo, g.Hi, g.Addr)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "mean estimate %.4f  truth %.4f  rel.err %.2f%%\n",
		mean, truth, 100*relErr(mean, truth))
	if o.protocol == "multi" {
		// Per-aggregate running averages over the locally driven hosts,
		// against the exact DemoValue population means.
		ap := pop.(*live.AgentPopulation)
		for _, name := range splitNames(o.aggregates) {
			var s float64
			c := 0
			for _, a := range ap.Agents() {
				if v, ok := a.(*multi.Node).Average(name); ok {
					s += v
					c++
				}
			}
			if c > 0 {
				s /= float64(c)
			}
			want := gateway.DemoMean(name, o.n)
			fmt.Fprintf(out, "aggregate %-12s mean %.4f  truth %.4f  rel.err %.2f%%  (%d/%d hosts)\n",
				name, s, want, 100*relErr(s, want), c, len(ap.Agents()))
		}
	}
	fmt.Fprintf(out, "sent %d  dropped %d  elapsed %v  peak_rss_bytes %d\n",
		e.Sent(), e.Dropped(), elapsed.Round(time.Millisecond), rss)
	if tcp, ok := transport.AsTCP(tr); ok && injectedLoss > 0 {
		fmt.Fprintf(out, "link kills %d (loss over tcp severs connections)\n", tcp.Kills())
	}
	return nil
}

// splitNames parses a comma-separated -aggregates list, dropping
// blanks.
func splitNames(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}
