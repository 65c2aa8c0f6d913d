package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
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
	"dynagg/internal/xrand"
)

// The deployable path, in one process: span engines on the agents
// backend (the multi protocol: one Count-Sketch-Reset size sketch plus
// named Push-Sum-Revert aggregates, resolver installed), each on its
// own TCP transport joined by live.Bootstrap, and a gateway.Server
// observer above the counted population. cluster-gossip and
// gateway-read both run on it.

// valuer is the seeded ground truth: host id's value for a named
// aggregate, and exact means over host ranges. Values rise with the
// host id, so the last span holds the high values and losing it moves
// the truth.
type valuer struct {
	seed uint64
	n    int
}

func (v valuer) value(name string, id int) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	u := xrand.NewStream(v.seed^h.Sum64(), uint64(id)).Float64()
	return 80*float64(id)/float64(v.n) + 20*u
}

func (v valuer) mean(name string, lo, hi int) float64 {
	var s float64
	for id := lo; id < hi; id++ {
		s += v.value(name, id)
	}
	return s / float64(hi-lo)
}

// newWorker builds one worker host of the multi protocol with its
// seeded values and a resolver for names registered at run time.
func (v valuer) newWorker(id gossip.NodeID, names []string, lambda float64) *multi.Node {
	values := make(map[string]float64, len(names))
	for _, name := range names {
		values[name] = v.value(name, int(id))
	}
	node := multi.New(id, values,
		sketchreset.Config{Params: sketch.DefaultParams},
		pushsumrevert.Config{Lambda: lambda})
	host := int(id)
	node.SetResolver(func(name string) (float64, bool) { return v.value(name, host), true })
	return node
}

// newWorker is the probes' shorthand: a worker of a 256-host
// population with the default λ.
func newWorker(seed uint64, id gossip.NodeID, names []string) *multi.Node {
	return valuer{seed: seed, n: 256}.newWorker(id, names, gateway.DefaultLambda)
}

// tickCounter counts host iterations where the live engine starts
// them. It is the only wrapper an untraced cluster carries.
type tickCounter struct {
	gossip.Agent
	n *atomic.Int64
}

func (t tickCounter) BeginRound(round int) {
	t.n.Add(1)
	t.Agent.BeginRound(round)
}

type clusterConfig struct {
	N       int
	Members int
	Pace    time.Duration
	Names   []string
	Seed    uint64
	Lambda  float64
	// Trace decorates every worker agent and transport.
	Trace  *tracer
	Parent int32
	// Listen serves the gateway on a real loopback listener; otherwise
	// reads go through the handler in-process.
	Listen bool
	// WrapHandler, with Listen, serves this wrapping of the gateway's
	// handler from the benchmark's own http.Server instead of
	// Server.Serve, so a traced run can time the handler in place.
	WrapHandler func(http.Handler) http.Handler
}

type member struct {
	lo, hi  int
	tcp     *transport.TCP
	dec     *transportDecor    // nil when untraced
	workers []*multi.Node      // undecorated, for audits
	cancel  context.CancelFunc // nil until the engine runs
	done    chan error
	stopped bool
}

type cluster struct {
	cfg     clusterConfig
	val     valuer
	members []*member
	ticks   atomic.Int64
	clocks  *agentClocks

	gw       *gateway.Server
	gwCancel context.CancelFunc
	serveErr chan error
	base     string // "http://127.0.0.1:port" when listening
	client   *http.Client

	bootstrap time.Duration
}

// startCluster builds the transports, engines and gateway and returns
// once the gateway has joined the membership; the workers are ticking
// by then.
func startCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{cfg: cfg, val: valuer{seed: cfg.Seed, n: cfg.N}}
	if cfg.Trace != nil {
		c.clocks = &agentClocks{tr: cfg.Trace, parent: cfg.Parent}
	}
	var seedAddr string
	for i := 0; i < cfg.Members; i++ {
		m := &member{lo: i * cfg.N / cfg.Members, hi: (i + 1) * cfg.N / cfg.Members, done: make(chan error, 1)}
		tcp, err := transport.NewTCP(
			transport.WithGroups(transport.Group{Lo: gossip.NodeID(m.lo), Hi: gossip.NodeID(m.hi), Addr: "127.0.0.1:0"}),
			transport.WithLocal(0))
		if err != nil {
			c.stop()
			return nil, err
		}
		m.tcp = tcp
		c.members = append(c.members, m)
		if i == 0 {
			// Member 0 is the seed: everyone announces to the address
			// its transport actually bound.
			seedAddr = tcp.GroupAddr(0)
		}
		agents := make([]gossip.Agent, m.hi-m.lo)
		for j := range agents {
			w := c.val.newWorker(gossip.NodeID(m.lo+j), cfg.Names, cfg.Lambda)
			m.workers = append(m.workers, w)
			agents[j] = w
		}
		var tr transport.Transport = tcp
		if cfg.Trace != nil {
			agents = decorateAgents(agents, gossip.NodeID(m.lo), c.clocks)
			m.dec = decorateTransport(tcp, cfg.Trace)
			m.dec.parent, m.dec.off = cfg.Parent, &c.clocks.off
			tr = m.dec
		}
		for j := range agents {
			agents[j] = tickCounter{agents[j], &c.ticks}
		}
		span := live.Span{Lo: gossip.NodeID(m.lo), Hi: gossip.NodeID(m.hi)}
		eng, err := live.New(live.Config{
			// One slot above the counted population: the gateway's
			// observer span.
			Env:        env.NewUniform(cfg.N + 1),
			Population: live.NewAgentPopulation(agents),
			Model:      gossip.Push, Seed: cfg.Seed + uint64(31*i), Ticks: live.Forever,
			TickEvery: cfg.Pace, Workers: 1,
			Transport: tr, Span: span,
			Bootstrap: &live.Bootstrap{Seeds: []string{seedAddr}, Span: span, Total: cfg.N, Retry: 10 * time.Millisecond},
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		m.cancel = cancel
		go func() { m.done <- eng.Run(ctx) }()
	}

	t0 := time.Now()
	gw, err := gateway.New(gateway.Config{
		Workers: cfg.N, Seeds: []string{seedAddr}, Aggregates: cfg.Names,
		Lambda: cfg.Lambda, TickEvery: cfg.Pace, Seed: cfg.Seed + 99, Replace: true,
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gw = gw
	ctx, cancel := context.WithCancel(context.Background())
	c.gwCancel = cancel
	if err := gw.Start(ctx); err != nil {
		c.stop()
		return nil, fmt.Errorf("gateway bootstrap: %w", err)
	}
	c.bootstrap = time.Since(t0)
	if cfg.Listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.base = "http://" + ln.Addr().String()
		c.serveErr = make(chan error, 1)
		if cfg.WrapHandler == nil {
			go func() { c.serveErr <- gw.Serve(ctx, ln) }()
		} else {
			hs := &http.Server{Handler: cfg.WrapHandler(gw.Handler())}
			go func() { hs.Serve(ln) }()
			go func() {
				<-ctx.Done()
				shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				c.serveErr <- hs.Shutdown(shctx)
			}()
		}
		c.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	}
	return c, nil
}

// stopMember cancels one span silently — its engine stops and its
// sockets close, and nothing else is told — and waits for it to end.
func (c *cluster) stopMember(i int) {
	m := c.members[i]
	if m.stopped {
		return
	}
	m.stopped = true
	if m.cancel != nil {
		m.cancel()
		<-m.done
	}
	m.tcp.Close()
}

// stop ends every engine, the gateway and its listener, and waits for
// each goroutine this cluster started.
func (c *cluster) stop() {
	for i := range c.members {
		c.stopMember(i)
	}
	if c.gw != nil {
		if c.gwCancel != nil {
			c.gwCancel()
			if c.serveErr != nil {
				<-c.serveErr
			}
			c.gw.Wait()
		}
		c.gw.Close()
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// traffic sums the worker transports' counters.
func (c *cluster) traffic() (sent, dropped, overflow, reconnects, kills int64) {
	for _, m := range c.members {
		sent += m.tcp.Sent()
		dropped += m.tcp.Dropped()
		overflow += m.tcp.OverflowDrops()
		reconnects += m.tcp.Reconnects()
		kills += m.tcp.Kills()
	}
	return
}

// aggBody mirrors the gateway's GET /aggregate/{name} response.
type aggBody struct {
	Average float64 `json:"average"`
	Size    float64 `json:"size"`
	Tick    int     `json:"tick"`
}

// do issues one request against the gateway: over the socket when the
// cluster listens, through the handler in-process otherwise.
func (c *cluster) do(method, path string) (int, []byte, error) {
	if c.base == "" {
		rec := httptest.NewRecorder()
		c.gw.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code, rec.Body.Bytes(), nil
	}
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// read returns one aggregate as the gateway serves it right now; ok is
// false until the gateway answers 200.
func (c *cluster) read(name string) (aggBody, bool) {
	code, body, err := c.do(http.MethodGet, "/aggregate/"+name)
	if err != nil || code != http.StatusOK {
		return aggBody{}, false
	}
	var b aggBody
	if json.Unmarshal(body, &b) != nil {
		return aggBody{}, false
	}
	return b, true
}

// awaitAverage polls one aggregate every 2ms until the gateway serves
// it within eps of want (relative), returning how long that took and
// the tick it was served at.
func (c *cluster) awaitAverage(name string, want, eps float64, timeout time.Duration) (time.Duration, aggBody, bool) {
	start := time.Now()
	for {
		if b, ok := c.read(name); ok && math.Abs(b.Average-want) <= eps*math.Abs(want) {
			return time.Since(start), b, true
		}
		if time.Since(start) > timeout {
			return timeout, aggBody{}, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// window measures the cluster over a wall-clock interval.
type window struct {
	wall       time.Duration
	cpu        time.Duration
	hostTicks  int64
	sent       int64
	dropped    int64
	overflow   int64
	gwTicks    int
	tickRatio  float64 // host ticks completed / host ticks scheduled
	dropRatio  float64
	gwRatio    float64 // observer ticks completed / scheduled
	reconnects int64
	kills      int64
}

// add accumulates another window's counts (ratios are recomputed by
// the caller from the sums).
func (w *window) add(o window) {
	w.wall += o.wall
	w.cpu += o.cpu
	w.hostTicks += o.hostTicks
	w.sent += o.sent
	w.dropped += o.dropped
	w.overflow += o.overflow
	w.gwTicks += o.gwTicks
	w.reconnects += o.reconnects
	w.kills += o.kills
}

// ratios fills the derived fields from the counts.
func (w *window) ratios(hosts int, pace time.Duration) {
	scheduled := w.wall.Seconds() / pace.Seconds()
	w.tickRatio = float64(w.hostTicks) / (scheduled * float64(hosts))
	w.gwRatio = float64(w.gwTicks) / scheduled
	w.dropRatio = 0
	if tot := w.sent + w.dropped; tot > 0 {
		w.dropRatio = float64(w.dropped) / float64(tot)
	}
}

// measure runs f and reports what the cluster did meanwhile. hosts is
// how many hosts were scheduled to tick.
func (c *cluster) measure(hosts int, f func()) window {
	s0, d0, o0, r0, k0 := c.traffic()
	t0 := c.ticks.Load()
	g0 := c.gatewayTick()
	cpu0 := cpuTime()
	start := time.Now()
	f()
	var w window
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	s1, d1, o1, r1, k1 := c.traffic()
	w.hostTicks = c.ticks.Load() - t0
	w.gwTicks = c.gatewayTick() - g0
	w.sent, w.dropped, w.overflow, w.reconnects, w.kills = s1-s0, d1-d0, o1-o0, r1-r0, k1-k0
	w.ratios(hosts, c.cfg.Pace)
	return w
}

// gatewayTick reads the observer's tick from /statusz.
func (c *cluster) gatewayTick() int {
	rec := httptest.NewRecorder()
	c.gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st struct {
		Tick int `json:"tick"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		return 0
	}
	return st.Tick
}
