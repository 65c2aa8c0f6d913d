package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dynagg/internal/chaos"
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

	format string // table (the report) or json (its one-line record)
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
	fs.IntVar(&o.rcvbuf, "rcvbuf", 0, "UDP socket receive buffer in bytes; 0 = 4 MiB (the kernel caps it at net.core.rmem_max)")
	fs.StringVar(&o.seeds, "seeds", "", "TCP bootstrap: comma-separated seed addresses shared by every process of the deployment (requires -span and -transport=tcp)")
	fs.StringVar(&o.span, "span", "", "TCP bootstrap: this process's host range lo:hi of the -n population (requires -seeds)")
	fs.StringVar(&o.listen, "listen", "", "TCP listen address for this process's span; default 127.0.0.1:0 (a seed process must listen on its advertised seed address)")
	fs.BoolVar(&o.replace, "replace", false, "cluster member: announce with restart semantics — seeds update a stale registration of this span to our address instead of reporting a conflict (set by the supervisor on respawns)")
	fs.DurationVar(&o.reannounce, "reannounce", 0, "cluster member: keepalive re-announce cadence, the failure detector's heartbeat (0 = 1s default)")
	fs.StringVar(&o.aggregates, "aggregates", "load", "-protocol=multi: comma-separated aggregate names (hosts register gateway.DemoValue per name)")
	fs.IntVar(&o.observerSlots, "observer-slots", 0, "cluster member: extra environment slots above -n reserved for observer spans (gateway processes); every process of a deployment must agree")
	fs.StringVar(&o.format, "format", "table", "output format: table (the report) or json (the same report as one JSON line)")
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
// outside [0,1] is refused by Lossy.Validate. It returns the (possibly
// wrapped) transport and the effective injected loss rate.
func resolveLossTransport(tr transport.Transport, wan string, loss float64, seed uint64) (transport.Transport, float64, error) {
	lt := &transport.Lossy{T: tr, P: loss, Seed: seed}
	switch {
	case wan != "" && loss != 0:
		return nil, 0, fmt.Errorf("-wan and -loss are mutually exclusive (the preset already sets a loss rate)")
	case wan != "":
		p, ok := transport.ProfileByName(wan)
		if !ok {
			return nil, 0, fmt.Errorf("unknown -wan preset %q (%s)", wan, strings.Join(transport.ProfileNames(), ", "))
		}
		lt.P, lt.Delay, lt.Jitter = p.Loss, p.Delay, p.Jitter
	case loss == 0:
		return tr, 0, nil
	}
	if err := lt.Validate(); err != nil {
		return nil, 0, err
	}
	return lt, lt.P, nil
}

// runLive executes one live-engine run and prints its record (see
// liveRecord): the resolved configuration, the mean estimate against
// the truth, the transport's sent/dropped books, elapsed time and peak
// RSS, and for a mass protocol on agents the span's mass census.
func runLive(out io.Writer, o liveOpts) error {
	if o.format != "table" && o.format != "json" {
		return fmt.Errorf("live: -format must be table or json, got %q", o.format)
	}
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
	// The span's mass endowment (ΣW, ΣV), when its agents have mass
	// semantics: the census row's baseline.
	var w0, v0 float64
	var hasMass bool
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
		w0, v0, hasMass = chaos.SumMass(agents)
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
	if rcvbuf == 0 {
		// A datagram the kernel drops is never seen, and its mass is lost.
		rcvbuf = 4 << 20
	}
	if o.columnar {
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
	rec := liveRecord{
		Protocol: o.protocol, Backend: "agents", Transport: o.transport,
		N: o.n, Ticks: o.ticks, Groups: o.groups, Loss: injectedLoss,
		Pace: o.pace, Workers: o.workers, Seed: o.seed, RcvBuf: rcvbuf,
	}
	if o.columnar {
		rec.Backend = "columnar"
	}
	if o.wan != "" {
		rec.Transport += "+" + o.wan
	}
	tcp, isTCP := transport.AsTCP(tr)
	if isTCP && injectedLoss > 0 {
		rec.LinkKills = new(int64)
	}
	if cluster {
		cfg.Span = span
		cfg.Bootstrap = &live.Bootstrap{
			Seeds: splitNames(o.seeds), Span: span, Total: o.n,
			Replace: o.replace, ReAnnounce: o.reannounce,
		}
		// Our own group is table index 0 at construction, but merging a
		// seed's membership can insert lower spans and shift it — so the
		// listen address must be captured before Run bootstraps.
		rec.Span, rec.Listen, rec.Seeds = &span, tcp.GroupAddr(0), o.seeds
	}
	e, err := live.New(cfg)
	if err != nil {
		return err
	}
	if o.format == "table" {
		rec.writeHeader(out)
	}

	start := time.Now()
	if err := e.Run(context.Background()); err != nil {
		return err
	}
	rec.Elapsed = time.Since(start).Round(time.Millisecond)

	ests := e.Estimates()
	for _, v := range ests {
		rec.Mean += v
	}
	if len(ests) > 0 {
		rec.Mean /= float64(len(ests))
	}
	rec.Truth, rec.RelErrPct = truth, 100*relErr(rec.Mean, truth)
	rec.PeakRSS = sysmem.PeakRSSBytes()
	if cluster {
		// The resolved view the bootstrap converged on: every span of
		// the population and the address serving it.
		rec.Membership = tcp.Groups()
	}
	if o.protocol == "multi" {
		// Per-aggregate running averages over the locally driven hosts,
		// against the exact DemoValue population means.
		ap := pop.(*live.AgentPopulation)
		for _, name := range splitNames(o.aggregates) {
			a := aggregateRecord{Name: name, Truth: gateway.DemoMean(name, o.n), Of: len(ap.Agents())}
			for _, ag := range ap.Agents() {
				if v, ok := ag.(*multi.Node).Average(name); ok {
					a.Mean += v
					a.Hosts++
				}
			}
			if a.Hosts > 0 {
				a.Mean /= float64(a.Hosts)
			}
			a.RelErrPct = 100 * relErr(a.Mean, a.Truth)
			rec.Aggregates = append(rec.Aggregates, a)
		}
	}
	rec.Sent, rec.Dropped = e.Sent(), e.Dropped()
	if rec.LinkKills != nil {
		*rec.LinkKills = tcp.Kills()
	}
	if hasMass {
		// The census counts what the agents hold and what their queues
		// still hold: a host that finished its ticks stopped draining.
		w, v, _ := chaos.SumMass(pop.(*live.AgentPopulation).Agents())
		qw, qv := chaos.InFlightMass(tr, o.n)
		rec.Mass = &massRecord{EndowmentW: w0, EndowmentV: v0, CensusW: w + qw, CensusV: v + qv}
	}
	if o.format == "json" {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	}
	rec.writeResult(out)
	return nil
}

// liveRecord is one `live` run's end-of-run result, exactly what its
// report table shows: the table is its rendering for people, and
// -format json prints it as one JSON line, the form supervise judges.
type liveRecord struct {
	// The resolved configuration: the table's header.
	Protocol  string        `json:"protocol"`
	Backend   string        `json:"backend"`
	Transport string        `json:"transport"` // "+preset" appended under -wan
	N         int           `json:"n"`
	Ticks     int           `json:"ticks"`
	Groups    int           `json:"groups"`
	Loss      float64       `json:"loss"` // the injected loss rate
	Pace      time.Duration `json:"pace_ns"`
	Workers   int           `json:"workers"`
	Seed      uint64        `json:"seed"`
	RcvBuf    int           `json:"rcvbuf"`

	// A cluster member's bootstrap: its span, the address it listens
	// on, the seed list, and the membership view it converged on.
	Span       *live.Span        `json:"span,omitempty"`
	Listen     string            `json:"listen,omitempty"`
	Seeds      string            `json:"seeds,omitempty"`
	Membership []transport.Group `json:"membership,omitempty"`

	// The mean of the driven hosts' estimates against the truth, and
	// for -protocol=multi one row per aggregate.
	Mean       float64           `json:"mean"`
	Truth      float64           `json:"truth"`
	RelErrPct  float64           `json:"rel_err_pct"`
	Aggregates []aggregateRecord `json:"aggregates,omitempty"`

	Sent    int64         `json:"sent"`
	Dropped int64         `json:"dropped"`
	Elapsed time.Duration `json:"elapsed_ns"` // rounded to the millisecond
	PeakRSS int64         `json:"peak_rss_bytes"`
	// LinkKills is set over tcp with injected loss, which severs the
	// carrying connection instead of dropping a frame.
	LinkKills *int64 `json:"link_kills,omitempty"`
	// Mass is the span's mass census, set for the mass protocols
	// (pushsum, revert) on agents.
	Mass *massRecord `json:"mass,omitempty"`
}

// aggregateRecord is one named aggregate of a multi run: the mean of
// the Hosts of the Of driven hosts that hold an estimate, against the
// exact population mean.
type aggregateRecord struct {
	Name      string  `json:"name"`
	Mean      float64 `json:"mean"`
	Truth     float64 `json:"truth"`
	RelErrPct float64 `json:"rel_err_pct"`
	Hosts     int     `json:"hosts"`
	Of        int     `json:"of"`
}

// massRecord is a span's mass census: the (ΣW, ΣV) its hosts started
// with, and what its agents and receive queues hold at the end.
// supervise sums the members' records into its mass audit.
type massRecord struct {
	EndowmentW float64 `json:"endowment_w"`
	EndowmentV float64 `json:"endowment_v"`
	CensusW    float64 `json:"census_w"`
	CensusV    float64 `json:"census_v"`
}

// writeHeader prints the table's configuration rows, before the run.
func (r *liveRecord) writeHeader(out io.Writer) {
	lossNote := ""
	if r.LinkKills != nil {
		lossNote = " (tcp: link-kill)"
	}
	fmt.Fprintf(out, "live config: protocol=%s backend=%s transport=%s n=%d ticks=%d groups=%d\n",
		r.Protocol, r.Backend, r.Transport, r.N, r.Ticks, r.Groups)
	fmt.Fprintf(out, "             loss=%.4f%s pace=%v workers=%d seed=%d rcvbuf=%d\n",
		r.Loss, lossNote, r.Pace, r.Workers, r.Seed, r.RcvBuf)
	if r.Span != nil {
		fmt.Fprintf(out, "bootstrap:   span [%d,%d) listening on %s  seeds %s\n",
			r.Span.Lo, r.Span.Hi, r.Listen, r.Seeds)
	}
}

// writeResult prints the table's result rows, after the run.
func (r *liveRecord) writeResult(out io.Writer) {
	if r.Span != nil {
		fmt.Fprintf(out, "membership: ")
		for i, g := range r.Membership {
			if i > 0 {
				fmt.Fprintf(out, "  ")
			}
			fmt.Fprintf(out, "[%d,%d)@%s", g.Lo, g.Hi, g.Addr)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "mean estimate %.4f  truth %.4f  rel.err %.2f%%\n", r.Mean, r.Truth, r.RelErrPct)
	for _, a := range r.Aggregates {
		fmt.Fprintf(out, "aggregate %-12s mean %.4f  truth %.4f  rel.err %.2f%%  (%d/%d hosts)\n",
			a.Name, a.Mean, a.Truth, a.RelErrPct, a.Hosts, a.Of)
	}
	fmt.Fprintf(out, "sent %d  dropped %d  elapsed %v  peak_rss_bytes %d\n", r.Sent, r.Dropped, r.Elapsed, r.PeakRSS)
	if r.LinkKills != nil {
		fmt.Fprintf(out, "link kills %d (loss over tcp severs connections)\n", *r.LinkKills)
	}
	if m := r.Mass; m != nil {
		fmt.Fprintf(out, "mass endowment w %.4f v %.4f  census w %.4f v %.4f\n",
			m.EndowmentW, m.EndowmentV, m.CensusW, m.CensusV)
	}
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
