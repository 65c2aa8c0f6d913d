package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynagg/internal/env"
	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live"
	"dynagg/internal/gossip/live/health"
	"dynagg/internal/gossip/live/transport"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
	"dynagg/internal/protocol/sketchreset"
	"dynagg/internal/sketch"
)

// tickPace is the wall-clock duty cycle the test clusters run at (see
// package live's TCP tests for why paced ticks are required over TCP).
func tickPace() time.Duration {
	if raceEnabled {
		return 20 * time.Millisecond
	}
	return 4 * time.Millisecond
}

// cluster is a running in-process worker population: the test-side
// model of a multi-process deployment, one TCP transport and engine
// per span.
type cluster struct {
	seedAddr string
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
}

// startCluster launches one engine per span over its own TCP
// transport, all running the multi protocol with DemoValue per-host
// values and a resolver (so dynamically registered names are adopted
// with real values). Engines tick Forever until cluster.stop.
func startCluster(t *testing.T, workers int, spans []live.Span, names []string) *cluster {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{cancel: cancel}
	trs := make([]*transport.TCP, len(spans))
	for i, s := range spans {
		tr, err := transport.NewTCP(
			transport.WithGroups(transport.Group{Lo: s.Lo, Hi: s.Hi, Addr: "127.0.0.1:0"}),
			transport.WithLocal(0),
			transport.WithReconnectBackoff(2*time.Millisecond, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(func() { tr.Close() })
	}
	c.seedAddr = trs[0].GroupAddr(0)
	for i, s := range spans {
		agents := make([]gossip.Agent, 0, int(s.Hi-s.Lo))
		for id := s.Lo; id < s.Hi; id++ {
			values := make(map[string]float64, len(names))
			for _, name := range names {
				values[name] = DemoValue(name, int(id))
			}
			n := multi.New(id, values,
				sketchreset.Config{Params: sketch.DefaultParams},
				pushsumrevert.Config{Lambda: DefaultLambda},
			)
			hostID := int(id)
			n.SetResolver(func(name string) (float64, bool) {
				return DemoValue(name, hostID), true
			})
			agents = append(agents, n)
		}
		e, err := live.New(live.Config{
			Population: live.NewAgentPopulation(agents),
			Env:        env.NewUniform(workers + 1), // slot `workers` is the observer
			Model:      gossip.Push,
			Seed:       uint64(97 + i),
			Ticks:      live.Forever,
			TickEvery:  tickPace(),
			Workers:    2,
			Transport:  trs[i],
			Span:       s,
			Bootstrap: &live.Bootstrap{
				Seeds: []string{c.seedAddr}, Span: s, Total: workers,
				Retry: 10 * time.Millisecond, Timeout: 20 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.wg.Add(1)
		go func(e *live.Engine) {
			defer c.wg.Done()
			if err := e.Run(ctx); err != nil && err != context.Canceled {
				t.Errorf("worker engine: %v", err)
			}
		}(e)
	}
	return c
}

// startGateway builds, bootstraps, and serves a gateway against the
// cluster, returning it with its HTTP test server.
func startGateway(t *testing.T, c *cluster, workers int, names []string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Workers:    workers,
		Seeds:      []string{c.seedAddr},
		Aggregates: names,
		TickEvery:  tickPace(),
		Seed:       7,
		Replace:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		s.Wait()
		s.Close()
	})
	if err := s.Start(ctx); err != nil {
		t.Fatalf("gateway bootstrap: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// getJSON fetches url and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// workerCounts is the counter matrix a bundle carries once the size
// sketch has spread through a population of workers: every worker's
// sourced counters min-merged, each at age 0. An observer fed it holds
// a size estimate above zero, as it does in a running cluster.
func workerCounts(workers int) []uint8 {
	cfg := sketchreset.Config{Params: sketch.DefaultParams, Identifiers: 1}
	all := sketchreset.New(0, cfg)
	for i := 1; i < workers; i++ {
		all.Exchange(sketchreset.New(gossip.NodeID(i), cfg))
	}
	env := all.Emit(0, nil, func() (gossip.NodeID, bool) { return 0, true })
	return env[0].Payload.(*sketchreset.Counters).Ages
}

// waitConverged polls GET /aggregate/name until it returns 200 with a
// value within tol (relative, floored at 0.5 absolute for near-zero
// truths) of want, or the deadline passes.
func waitConverged(t *testing.T, base, name string, want, tol float64, deadline time.Duration) aggregateBody {
	t.Helper()
	abs := tol * math.Abs(want)
	if abs < 0.5 {
		abs = 0.5
	}
	var last aggregateBody
	var lastStatus int
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		var body aggregateBody
		if st := getJSON(t, base+"/aggregate/"+name, &body); st == http.StatusOK {
			last, lastStatus = body, st
			if math.Abs(body.Average-want) <= abs {
				return body
			}
		} else {
			lastStatus = st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("aggregate %q never converged: last status %d, last body %+v, want average ≈ %v",
		name, lastStatus, last, want)
	return aggregateBody{}
}

// TestGatewayServesConvergedAggregates is the tentpole acceptance
// path: a 3-span worker cluster over real TCP sockets, a gateway
// joining as the observer span, and HTTP reads returning the
// population's converged estimates with no fan-out.
func TestGatewayServesConvergedAggregates(t *testing.T) {
	const workers = 6
	names := []string{"load", "temp"}
	spans := []live.Span{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}, {Lo: 4, Hi: 6}}
	c := startCluster(t, workers, spans, names)
	defer c.stop()
	_, hs := startGateway(t, c, workers, names)

	for _, name := range names {
		body := waitConverged(t, hs.URL, name, DemoMean(name, workers), 0.30, 30*time.Second)
		if body.Name != name {
			t.Errorf("body.Name = %q, want %q", body.Name, name)
		}
		if body.Size <= 0 {
			t.Errorf("aggregate %q served with non-positive size %v", name, body.Size)
		}
		if want := body.Average * body.Size; math.Abs(body.Sum-want) > 1e-9 {
			t.Errorf("Sum %v inconsistent with Average×Size %v", body.Sum, want)
		}
	}

	// The listing carries both converged aggregates.
	var list struct {
		Aggregates []aggregateBody `json:"aggregates"`
		Size       float64         `json:"size"`
		Tick       int             `json:"tick"`
	}
	if st := getJSON(t, hs.URL+"/aggregates", &list); st != http.StatusOK {
		t.Fatalf("GET /aggregates = %d", st)
	}
	if len(list.Aggregates) != len(names) {
		t.Errorf("listing has %d aggregates, want %d: %+v", len(list.Aggregates), len(names), list)
	}
	if list.Tick == 0 {
		t.Error("listing reports tick 0 on a running gateway")
	}

	// Health and status report a running, fully-mapped observer.
	if st := getJSON(t, hs.URL+"/healthz", nil); st != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", st)
	}
	var status struct {
		Span       string `json:"span"`
		Workers    int    `json:"workers"`
		Tick       int    `json:"tick"`
		Membership []struct {
			Lo   int    `json:"lo"`
			Hi   int    `json:"hi"`
			Addr string `json:"addr"`
		} `json:"membership"`
		Aggregates []struct {
			Name      string `json:"name"`
			Converged bool   `json:"converged"`
		} `json:"aggregates"`
	}
	if st := getJSON(t, hs.URL+"/statusz", &status); st != http.StatusOK {
		t.Fatalf("GET /statusz = %d", st)
	}
	if status.Span != fmt.Sprintf("[%d,%d)", workers, workers+1) {
		t.Errorf("statusz span = %q", status.Span)
	}
	if len(status.Membership) != len(spans)+1 {
		t.Errorf("statusz membership has %d groups, want %d (workers + observer)",
			len(status.Membership), len(spans)+1)
	}
	for _, a := range status.Aggregates {
		if !a.Converged {
			t.Errorf("statusz reports %q unconverged on a converged gateway", a.Name)
		}
	}

	// Unknown names are 404, not 503: the name space is known state.
	if st := getJSON(t, hs.URL+"/aggregate/nope", nil); st != http.StatusNotFound {
		t.Errorf("GET unknown aggregate = %d, want 404", st)
	}
}

// TestGatewayDynamicRegistrationPropagates registers a new aggregate
// through the HTTP API and watches it spread through the worker
// population (whose resolvers supply real values) back to the
// observer.
func TestGatewayDynamicRegistrationPropagates(t *testing.T) {
	const workers = 6
	spans := []live.Span{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}}
	c := startCluster(t, workers, spans, []string{"load"})
	defer c.stop()
	_, hs := startGateway(t, c, workers, []string{"load"})
	waitConverged(t, hs.URL, "load", DemoMean("load", workers), 0.30, 30*time.Second)

	// First registration creates (201), the second is idempotent (200).
	resp, err := http.Post(hs.URL+"/aggregate/cpu", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST new aggregate = %d, want 201", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/aggregate/cpu", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST existing aggregate = %d, want 200", resp.StatusCode)
	}

	// The name gossips outward from the observer; resolvers register it
	// with DemoValue, and mass flows back. ±0.5 absolute floor covers
	// small-population noise.
	waitConverged(t, hs.URL, "cpu", DemoMean("cpu", workers), 0.35, 30*time.Second)

	// A registration carrying mass is rejected: observers hold none.
	resp, err = http.Post(hs.URL+"/aggregate/disk", "application/json",
		strings.NewReader(`{"value": 3.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST with non-zero value = %d, want 400", resp.StatusCode)
	}
}

// TestGatewayNotConvergedIs503 pins the no-stale-reads contract at the
// handler level, without a cluster: a gateway whose observer has not
// received mass answers 503 for known names, 404 for unknown ones,
// and 503 on /healthz — never a fabricated 200.
func TestGatewayNotConvergedIs503(t *testing.T) {
	s, err := New(Config{
		Workers: 4,
		Seeds:   []string{"127.0.0.1:1"}, // never dialed: engine not started
		Listen:  "127.0.0.1:0",
		Aggregates: []string{
			"load",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	var eb errorBody
	if st := getJSON(t, hs.URL+"/aggregate/load", &eb); st != http.StatusServiceUnavailable {
		t.Errorf("GET known-but-unconverged = %d, want 503", st)
	}
	if eb.Error == "" {
		t.Error("503 body carries no error message")
	}
	if st := getJSON(t, hs.URL+"/aggregate/ghost", nil); st != http.StatusNotFound {
		t.Errorf("GET unknown = %d, want 404", st)
	}
	if st := getJSON(t, hs.URL+"/healthz", nil); st != http.StatusServiceUnavailable {
		t.Errorf("GET /healthz before start = %d, want 503", st)
	}
	// The listing omits unconverged aggregates rather than serving them.
	var list struct {
		Aggregates []aggregateBody `json:"aggregates"`
	}
	if st := getJSON(t, hs.URL+"/aggregates", &list); st != http.StatusOK {
		t.Errorf("GET /aggregates = %d, want 200", st)
	}
	if len(list.Aggregates) != 0 {
		t.Errorf("unconverged gateway lists %d aggregates, want 0", len(list.Aggregates))
	}
	// Statusz still reports the name as known, just unconverged.
	var status struct {
		Aggregates []struct {
			Name           string `json:"name"`
			Converged      bool   `json:"converged"`
			StalenessTicks int    `json:"staleness_ticks"`
		} `json:"aggregates"`
	}
	if st := getJSON(t, hs.URL+"/statusz", &status); st != http.StatusOK {
		t.Fatalf("GET /statusz = %d", st)
	}
	if len(status.Aggregates) != 1 || status.Aggregates[0].Converged {
		t.Errorf("statusz = %+v, want one unconverged aggregate", status.Aggregates)
	}
	if status.Aggregates[0].StalenessTicks != -1 {
		t.Errorf("staleness before any mass = %d, want -1", status.Aggregates[0].StalenessTicks)
	}
}

// TestObserverZeroSizeIsNotConverged pins the observer's read path on
// a full smoothing ring whose size estimate is 0. An observer no
// counter matrix has reached is not converged (read, listing and
// /statusz's flag agree); a matrix makes it servable; and once the
// workers fall silent — nothing arrives, as when every worker has
// exited — the matrix ages to a size of 0, the last estimate above
// zero is served for one smoothing window (an observer's size can read
// 0 for a tick or two in a live population), and then reads turn back
// to not converged. No read ever serves a size of 0.
func TestObserverZeroSizeIsNotConverged(t *testing.T) {
	const workers = 4
	o := newObserverAgent(multi.NewObserver(workers, []string{"load"},
		sketchreset.Config{Params: sketch.DefaultParams}, pushsumrevert.Config{}))
	feed := func(tick int, count any) {
		o.BeginRound(tick)
		o.Receive(multi.Bundle{Count: count, Masses: []multi.NamedMass{
			{Name: "load", Mass: pushsumrevert.Mass{W: 0.5, V: 1.5}},
		}})
		o.EndRound(tick)
	}
	converged := func() bool {
		st := o.statuses()
		if len(st) != 1 {
			t.Fatalf("statuses = %+v, want load alone", st)
		}
		return st[0].converged
	}
	tick := 0
	for ; tick < DefaultSmoothWindow; tick++ {
		feed(tick, nil)
	}
	if r := o.rings["load"]; r == nil || !r.full() {
		t.Fatal("smoothing ring not full after a window of mass")
	}
	if body, st := o.read("load"); st != readNotConverged {
		t.Errorf("read at size 0 = %+v (status %d), want not converged", body, st)
	}
	if converged() {
		t.Error("statusz reports load converged at size 0")
	}
	if aggs, size, _ := o.readAll(); len(aggs) != 0 || size != 0 {
		t.Errorf("readAll at size 0 = %+v, size %v; want nothing served", aggs, size)
	}

	feed(tick, workerCounts(workers))
	tick++
	body, st := o.read("load")
	if st != readOK || body.Size <= 0 || body.Average != 3 || body.Sum != 3*body.Size {
		t.Fatalf("read after a counter matrix = %+v (status %d), want average 3 at a size above 0", body, st)
	}
	if !converged() {
		t.Error("statusz reports load unconverged after a counter matrix")
	}

	// The workers fall silent: the observer ticks on, hearing nothing.
	bridged := 0
	for silent := tick; ; tick++ {
		o.BeginRound(tick)
		o.EndRound(tick)
		body, st := o.read("load")
		if st != readOK {
			break
		}
		if body.Size <= 0 || body.Sum != body.Average*body.Size {
			t.Fatalf("tick %d: served %+v, a size of 0", tick, body)
		}
		if tick-silent > 1000 {
			t.Fatal("a silent observer still serves reads 1000 ticks on")
		}
		if est, _ := o.node.Size(); est == 0 {
			bridged++
		}
	}
	if bridged != DefaultSmoothWindow {
		t.Errorf("served the last size for %d ticks of a 0 estimate, want %d", bridged, DefaultSmoothWindow)
	}
	if est, _ := o.node.Size(); est != 0 {
		t.Errorf("reads stopped at tick %d with the size estimate still %v", tick, est)
	}
	if converged() {
		t.Error("statusz reports load converged after the workers fell silent")
	}
}

// TestObserverJoinsMidEpoch starts the gateway only after the worker
// population has been gossiping on its own: the observer's announce
// arrives mid-epoch, membership reaches it via the seed's push, and it
// converges onto the already-running aggregate.
func TestObserverJoinsMidEpoch(t *testing.T) {
	const workers = 6
	spans := []live.Span{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}}
	c := startCluster(t, workers, spans, []string{"load"})
	defer c.stop()

	// Let the workers converge among themselves first.
	time.Sleep(50 * tickPace())

	_, hs := startGateway(t, c, workers, []string{"load"})
	waitConverged(t, hs.URL, "load", DemoMean("load", workers), 0.30, 30*time.Second)
}

// TestObserverRestartReclaimsSpan kills a gateway and starts a
// replacement on a fresh port under the same observer span: with
// Replace semantics the new process reclaims the span instead of dying
// on ErrSpanConflict, and serving resumes.
func TestObserverRestartReclaimsSpan(t *testing.T) {
	const workers = 6
	spans := []live.Span{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}}
	c := startCluster(t, workers, spans, []string{"load"})
	defer c.stop()

	s1, err := New(Config{
		Workers: workers, Seeds: []string{c.seedAddr},
		Aggregates: []string{"load"}, TickEvery: tickPace(),
		Seed: 7, Replace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := s1.Start(ctx1); err != nil {
		t.Fatalf("first gateway bootstrap: %v", err)
	}
	// Kill it: its span registration stays in the seeds' tables at the
	// now-dead address — exactly the crash-restart scenario.
	cancel1()
	s1.Wait()
	s1.Close()

	_, hs := startGateway(t, c, workers, []string{"load"})
	waitConverged(t, hs.URL, "load", DemoMean("load", workers), 0.30, 30*time.Second)
}

// TestGatewayDegradesOnDeadWorkerSpan drives the failure detector on a
// virtual clock (no cluster, no sleeps): /healthz flips ok → degraded
// 503 when a worker span's heartbeats stop, reads stay 200 but carry
// the degraded flag and the dead span, and a resurrection heartbeat
// restores everything. Observer slots at or above Workers never count.
func TestGatewayDegradesOnDeadWorkerSpan(t *testing.T) {
	const workers = 96
	var offset time.Duration
	base := time.Now()
	s, err := New(Config{
		Workers:    workers,
		Seeds:      []string{"127.0.0.1:1"}, // never dialed: engine not started
		Aggregates: []string{"load"},
		Health: health.Config{
			HeartbeatEvery: 100 * time.Millisecond,
			Now:            func() time.Time { return base.Add(offset) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for tick := 0; tick <= DefaultSmoothWindow; tick++ {
		s.obs.BeginRound(tick)
		s.obs.Receive(multi.Bundle{Count: workerCounts(workers), Masses: []multi.NamedMass{
			{Name: "load", Mass: pushsumrevert.Mass{W: 0.5, V: 0.5 * DemoMean("load", workers)}},
		}})
		s.obs.EndRound(tick)
	}
	if err := s.tcp.RegisterGroup(0, gossip.NodeID(workers), "127.0.0.1:19321"); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Both worker halves heartbeat, plus an observer slot that will
	// fall silent too — it must never degrade the gateway.
	s.det.Observe(0, 48, "127.0.0.1:19321", 0)
	s.det.Observe(48, 96, "127.0.0.1:19322", 0)
	s.det.Observe(96, 97, "127.0.0.1:19323", 0)

	var hb struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
	}
	if st := getJSON(t, hs.URL+"/healthz", &hb); st != http.StatusOK || hb.Degraded {
		t.Fatalf("healthy gateway: status %d, body %+v", st, hb)
	}

	// Ten virtual seconds pass; only [48,96) is heard again. [0,48)
	// and the observer slot cross the dead threshold.
	offset = 10 * time.Second
	s.det.Observe(48, 96, "127.0.0.1:19322", 0)

	if st := getJSON(t, hs.URL+"/healthz", &hb); st != http.StatusServiceUnavailable || hb.Status != "degraded" || !hb.Degraded {
		t.Fatalf("degraded gateway: status %d, body %+v", st, hb)
	}
	var agg struct {
		Name      string `json:"name"`
		Degraded  bool   `json:"degraded"`
		DeadSpans []struct {
			Lo        int   `json:"lo"`
			Hi        int   `json:"hi"`
			SilenceMS int64 `json:"silence_ms"`
		} `json:"dead_spans"`
	}
	if st := getJSON(t, hs.URL+"/aggregate/load", &agg); st != http.StatusOK {
		t.Fatalf("degraded read: status %d", st)
	}
	if !agg.Degraded || len(agg.DeadSpans) != 1 || agg.DeadSpans[0].Lo != 0 || agg.DeadSpans[0].Hi != 48 {
		t.Fatalf("degraded read body: %+v", agg)
	}
	if agg.DeadSpans[0].SilenceMS < 9000 {
		t.Errorf("silence_ms = %d, want ≈10000", agg.DeadSpans[0].SilenceMS)
	}

	// Resurrection: one fresh heartbeat from [0,48) and the verdict
	// snaps back to alive — the gateway recovers with no restart.
	s.det.Observe(0, 48, "127.0.0.1:19321", 0)
	if st := getJSON(t, hs.URL+"/healthz", &hb); st != http.StatusOK || hb.Status != "ok" || hb.Degraded {
		t.Fatalf("recovered gateway: status %d, body %+v", st, hb)
	}
}
