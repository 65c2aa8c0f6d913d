// Package gateway serves converged gossip estimates over HTTP/JSON.
//
// A gateway process joins the live population as an *observer span*: it
// bootstraps into the TCP membership like any worker (live.Bootstrap),
// runs the multi protocol, and is picked as a gossip peer like any
// other host — but it owns zero sketch identifiers and its aggregates
// carry zero weight, so it converges to the population's answers
// without perturbing them. Queries are then answered straight from the
// observer's local state: no fan-out, no consensus round, just a read —
// the paper's point is that after convergence every host holds the
// answer, so reads are free.
//
// The HTTP surface (see docs/gateway-api.md for the full reference):
//
//	GET  /aggregates        list every known aggregate with estimates
//	GET  /aggregate/{name}  one aggregate's average / sum / size
//	POST /aggregate/{name}  register a new named aggregate
//	GET  /healthz           liveness + membership coverage + degradation
//	GET  /statusz           tick, span, membership map, staleness
//
// Reads return 503 until the observer has actually converged (received
// mass and accumulated a full smoothing window) — never a stale or
// fabricated 200. A single observer's instantaneous estimate carries
// gossip sampling noise, so served values are a trailing-window mean
// over the last SmoothWindow ticks; /statusz reports per-aggregate
// staleness (ticks since mass last arrived) alongside.
//
// Degradation is graceful and loud: a failure detector (package
// health) rides the membership heartbeat traffic, and when a worker
// span goes dead the gateway keeps serving its last converged
// estimates — flagged `degraded` with the dead span list on reads and
// /statusz — while /healthz flips to 503 so load balancers rotate the
// gateway out until the supervisor heals the span.
package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
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

// Config assembles a gateway server.
type Config struct {
	// Workers is the worker population size: worker hosts occupy
	// [0, Workers) and the observer takes the single slot [Workers,
	// Workers+1). Every process of the deployment must agree on it.
	Workers int
	// Seeds are the bootstrap seed addresses (live.Bootstrap.Seeds).
	Seeds []string
	// Listen is the TCP bind address for the observer's transport
	// group ("127.0.0.1:0" for an ephemeral port).
	Listen string
	// Aggregates are names to register before joining; more arrive by
	// listening (the observer auto-registers unknown incoming names)
	// or by POST /aggregate/{name}. May be empty.
	Aggregates []string
	// Lambda is the population's Push-Sum-Revert reversion constant;
	// it must match the workers'. Zero means DefaultLambda.
	Lambda float64
	// TickEvery paces the observer's gossip ticks; it should match the
	// workers' pacing. Zero means DefaultTickEvery.
	TickEvery time.Duration
	// SmoothWindow is how many trailing per-tick estimates are averaged
	// into served values (zero means DefaultSmoothWindow). Reads return
	// 503 until the window has filled once, so it also sets how many
	// mass-bearing ticks "converged" requires.
	SmoothWindow int
	// Seed drives the observer's gossip randomness.
	Seed uint64
	// Replace is passed to live.Bootstrap.Replace as is, so the zero
	// value is off. Set, an observer that crashed and restarted on a
	// new port reclaims its span instead of dying on ErrSpanConflict.
	Replace bool
	// Health tunes the failure detector behind the degraded flag; its
	// HeartbeatEvery should match the workers' keepalive cadence. The
	// zero value matches the 1s bootstrap default.
	Health health.Config
}

// Defaults for the zero Config fields.
const (
	DefaultLambda       = 0.05
	DefaultTickEvery    = 20 * time.Millisecond
	DefaultSmoothWindow = 8
)

// Server is a running gateway: the observer engine plus the HTTP
// front end reading its state.
type Server struct {
	cfg   Config
	obs   *observerAgent
	tcp   *transport.TCP
	det   *health.Detector
	eng   *live.Engine
	mux   *http.ServeMux
	start time.Time

	mu      sync.Mutex
	running bool
	runErr  error
	done    chan struct{}
}

// New validates the configuration and builds the gateway: the TCP
// transport listening for the observer span, the observer protocol
// node, and the live engine configured to bootstrap into the seeds and
// tick forever. Nothing runs until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("gateway: Workers must be positive, got %d", cfg.Workers)
	}
	if len(cfg.Seeds) == 0 {
		return nil, fmt.Errorf("gateway: Seeds is empty")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = DefaultLambda
	}
	if cfg.Lambda < 0 || cfg.Lambda > 1 {
		return nil, fmt.Errorf("gateway: Lambda %v outside [0,1]", cfg.Lambda)
	}
	if cfg.TickEvery == 0 {
		cfg.TickEvery = DefaultTickEvery
	}
	if cfg.SmoothWindow <= 0 {
		cfg.SmoothWindow = DefaultSmoothWindow
	}
	lo := gossip.NodeID(cfg.Workers)
	tcp, err := transport.NewTCP(
		transport.WithGroups(transport.Group{Lo: lo, Hi: lo + 1, Addr: cfg.Listen}),
		transport.WithLocal(0))
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	node := multi.NewObserver(lo, cfg.Aggregates,
		sketchreset.Config{Params: sketch.DefaultParams},
		pushsumrevert.Config{Lambda: cfg.Lambda},
	)
	obs := newObserverAgent(node, cfg.SmoothWindow)
	span := live.Span{Lo: lo, Hi: lo + 1}
	eng, err := live.New(live.Config{
		Population: live.NewAgentPopulation([]gossip.Agent{obs}),
		Env:        env.NewUniform(cfg.Workers + 1),
		Model:      gossip.Push,
		Seed:       cfg.Seed,
		Ticks:      live.Forever,
		TickEvery:  cfg.TickEvery,
		Transport:  tcp,
		Span:       span,
		Bootstrap: &live.Bootstrap{
			Seeds:   cfg.Seeds,
			Span:    span,
			Total:   cfg.Workers,
			Replace: cfg.Replace,
		},
	})
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	s := &Server{
		cfg: cfg,
		obs: obs,
		tcp: tcp,
		// The detector hears every worker span through this transport:
		// the seeds' announce replies and membership pushes carry relayed
		// freshness ages for the whole population, refreshed by our own
		// keepalive cadence.
		det:   health.Attach(tcp, cfg.Health),
		eng:   eng,
		start: time.Now(),
		done:  make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /aggregates", s.handleList)
	s.mux.HandleFunc("GET /aggregate/{name}", s.handleGet)
	s.mux.HandleFunc("POST /aggregate/{name}", s.handlePost)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s, nil
}

// Handler returns the gateway's HTTP handler (also what Serve binds),
// so tests and embedders can mount it without a socket.
func (s *Server) Handler() http.Handler { return s.mux }

// TransportAddr returns the observer span's bound TCP address.
func (s *Server) TransportAddr() string { return s.tcp.GroupAddr(0) }

// Start bootstraps into the membership and begins ticking, returning
// once the observer is part of the population (or with the bootstrap
// error). The engine then runs until ctx is cancelled; Wait reports
// its exit.
func (s *Server) Start(ctx context.Context) error {
	bootErr := make(chan error, 1)
	go func() {
		defer close(s.done)
		err := s.eng.Run(ctx) // Run performs the bootstrap before ticking
		s.mu.Lock()
		if !s.running {
			// Run never got past bootstrap.
			bootErr <- err
		}
		s.runErr = err
		s.mu.Unlock()
	}()
	// Bootstrap completion is observable as membership coverage.
	for {
		select {
		case err := <-bootErr:
			return err
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if s.tcp.Covers(s.cfg.Workers) {
			s.mu.Lock()
			s.running = true
			s.mu.Unlock()
			return nil
		}
	}
}

// Wait blocks until the engine exits (context cancellation, normally)
// and returns its error.
func (s *Server) Wait() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Serve runs the HTTP front end on ln until ctx is cancelled. It owns
// the listener and closes it on the way out.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		hs.Shutdown(shctx)
		return ctx.Err()
	case err := <-errc:
		return err
	}
}

// Close releases the transport. Call after the engine has stopped.
func (s *Server) Close() error { return s.tcp.Close() }

// ---- HTTP handlers ----

// aggregateBody is the JSON shape of one served aggregate.
type aggregateBody struct {
	Name string `json:"name"`
	// Average is the smoothed Push-Sum-Revert estimate: the mean of
	// the observer's per-tick estimates over the trailing window.
	Average float64 `json:"average"`
	// Sum is Average × Size — the paper's Figure 7 estimate.
	Sum float64 `json:"sum"`
	// Size is the Count-Sketch-Reset network-size estimate.
	Size float64 `json:"size"`
	// Tick is the observer's gossip tick at read time.
	Tick int `json:"tick"`
	// StalenessTicks is how many ticks ago mass last arrived for this
	// aggregate; 0 means it arrived on the current tick.
	StalenessTicks int `json:"staleness_ticks"`
}

type errorBody struct {
	Error string `json:"error"`
}

// spanBody is one dead worker span in a degradation report.
type spanBody struct {
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	Addr string `json:"addr"`
	// SilenceMS is how long the span has been unheard, in milliseconds.
	SilenceMS int64 `json:"silence_ms"`
}

// deadSpans lists the worker spans the failure detector currently
// judges dead. Observer slots (at or above Workers) come and go freely
// and never degrade the gateway.
func (s *Server) deadSpans() []spanBody {
	out := make([]spanBody, 0, 2)
	for _, sp := range s.det.DeadSpans() {
		if int(sp.Lo) >= s.cfg.Workers {
			continue
		}
		out = append(out, spanBody{
			Lo: int(sp.Lo), Hi: int(sp.Hi), Addr: sp.Addr,
			SilenceMS: sp.Silence.Milliseconds(),
		})
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	// Degradation does not turn reads into errors: the observer still
	// holds the last converged estimates, and serving them flagged is
	// strictly more useful than a 503 — that is what "graceful" means.
	// Consumers that must not act on drifting data check `degraded`.
	type aggregateResponse struct {
		aggregateBody
		Degraded  bool       `json:"degraded"`
		DeadSpans []spanBody `json:"dead_spans"`
	}
	name := r.PathValue("name")
	snap, status := s.obs.read(name)
	switch status {
	case readUnknown:
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown aggregate: " + name})
	case readNotConverged:
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "not converged"})
	default:
		dead := s.deadSpans()
		writeJSON(w, http.StatusOK, aggregateResponse{
			aggregateBody: snap, Degraded: len(dead) > 0, DeadSpans: dead,
		})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type listBody struct {
		Aggregates []aggregateBody `json:"aggregates"`
		Size       float64         `json:"size"`
		Tick       int             `json:"tick"`
	}
	aggs, size, tick := s.obs.readAll()
	writeJSON(w, http.StatusOK, listBody{Aggregates: aggs, Size: size, Tick: tick})
}

func (s *Server) handlePost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" || len(name) > 256 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "aggregate name must be 1-256 bytes"})
		return
	}
	// An observer holds no mass, so a registration carries no value;
	// a body supplying a non-zero one is a misunderstanding worth
	// rejecting loudly rather than silently dropping.
	var body struct {
		Value float64 `json:"value"`
	}
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil && err.Error() != "EOF" {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed JSON body"})
			return
		}
	}
	if body.Value != 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "observer registrations hold no mass; value must be 0 or absent"})
		return
	}
	created := s.obs.register(name)
	type postBody struct {
		Name       string `json:"name"`
		Registered bool   `json:"registered"`
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, postBody{Name: name, Registered: created})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type healthBody struct {
		Status  string `json:"status"`
		Covered bool   `json:"covered"`
		Tick    int    `json:"tick"`
		// Degraded flips when a counted worker span is judged dead.
		Degraded bool `json:"degraded"`
	}
	tick := s.obs.tick()
	covered := s.tcp.Covers(s.cfg.Workers)
	degraded := len(s.deadSpans()) > 0
	switch {
	case !covered || tick == 0:
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "starting", Covered: covered, Tick: tick, Degraded: degraded})
	case degraded:
		// A dead worker span means estimates may drift until the
		// supervisor heals it; 503 here rotates this gateway out of a
		// load balancer while /aggregate reads stay available, flagged.
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "degraded", Covered: covered, Tick: tick, Degraded: true})
	default:
		writeJSON(w, http.StatusOK, healthBody{Status: "ok", Covered: covered, Tick: tick, Degraded: false})
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	type memberBody struct {
		Lo   int    `json:"lo"`
		Hi   int    `json:"hi"`
		Addr string `json:"addr"`
	}
	type aggStatus struct {
		Name           string `json:"name"`
		Converged      bool   `json:"converged"`
		StalenessTicks int    `json:"staleness_ticks"`
	}
	type transportBody struct {
		Kills           int64 `json:"kills"`
		Reconnects      int64 `json:"reconnects"`
		OverflowDropped int64 `json:"overflow_dropped"`
	}
	type statusBody struct {
		Span          string        `json:"span"`
		Workers       int           `json:"workers"`
		Tick          int           `json:"tick"`
		UptimeSeconds float64       `json:"uptime_seconds"`
		Degraded      bool          `json:"degraded"`
		DeadSpans     []spanBody    `json:"dead_spans"`
		Membership    []memberBody  `json:"membership"`
		Sent          int64         `json:"sent"`
		Dropped       int64         `json:"dropped"`
		Transport     transportBody `json:"transport"`
		Aggregates    []aggStatus   `json:"aggregates"`
	}
	var members []memberBody
	for _, g := range s.tcp.Groups() {
		members = append(members, memberBody{Lo: int(g.Lo), Hi: int(g.Hi), Addr: g.Addr})
	}
	var aggs []aggStatus
	for _, st := range s.obs.statuses() {
		aggs = append(aggs, aggStatus{Name: st.name, Converged: st.converged, StalenessTicks: st.staleness})
	}
	dead := s.deadSpans()
	writeJSON(w, http.StatusOK, statusBody{
		Span:          fmt.Sprintf("[%d,%d)", s.cfg.Workers, s.cfg.Workers+1),
		Workers:       s.cfg.Workers,
		Tick:          s.obs.tick(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Degraded:      len(dead) > 0,
		DeadSpans:     dead,
		Membership:    members,
		Sent:          s.tcp.Sent(),
		Dropped:       s.tcp.Dropped(),
		Transport: transportBody{
			Kills:           s.tcp.Kills(),
			Reconnects:      s.tcp.Reconnects(),
			OverflowDropped: s.tcp.OverflowDrops(),
		},
		Aggregates: aggs,
	})
}
