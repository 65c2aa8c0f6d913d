package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynagg/internal/gossip"
	"dynagg/internal/gossip/live/health"
	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
)

// apiDocPath is the API reference this test keeps honest: every
// example annotated with an `api-test` comment is executed against the
// real handlers.
const apiDocPath = "../../docs/gateway-api.md"

// apiTestRE matches the annotation preceding an example payload:
//
//	<!-- api-test: GET /aggregate/load 200 -->
//	<!-- api-test starting: GET /healthz 503 -->
//	<!-- api-test: POST /aggregate/load 400 {"value": 3.5} -->
//
// The optional word after api-test names the server fixture (default
// "main"); the optional JSON tail is the request body.
var apiTestRE = regexp.MustCompile(`<!--\s*api-test(?:\s+(\w+))?:\s*(GET|POST)\s+(\S+)\s+(\d{3})(?:\s+(\{.*\}))?\s*-->`)

// apiExample is one parsed annotation plus the fenced JSON block that
// follows it in the document.
type apiExample struct {
	line     int
	fixture  string
	method   string
	path     string
	status   int
	reqBody  string
	respJSON string
}

// parseAPIDoc extracts every annotated example, in document order.
func parseAPIDoc(t *testing.T) []apiExample {
	t.Helper()
	f, err := os.Open(apiDocPath)
	if err != nil {
		t.Fatalf("opening API reference: %v", err)
	}
	defer f.Close()
	var (
		examples []apiExample
		pending  *apiExample
		inFence  bool
		lineNo   int
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if m := apiTestRE.FindStringSubmatch(line); m != nil {
			if pending != nil {
				t.Fatalf("%s:%d: api-test annotation with no ```json block before the next one", apiDocPath, pending.line)
			}
			status, _ := strconv.Atoi(m[4])
			pending = &apiExample{
				line: lineNo, fixture: m[1], method: m[2], path: m[3],
				status: status, reqBody: m[5],
			}
			if pending.fixture == "" {
				pending.fixture = "main"
			}
			continue
		}
		switch {
		case pending != nil && strings.HasPrefix(line, "```json"):
			inFence = true
		case inFence && strings.HasPrefix(line, "```"):
			inFence = false
			examples = append(examples, *pending)
			pending = nil
		case inFence:
			pending.respJSON += line + "\n"
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pending != nil {
		t.Fatalf("%s:%d: api-test annotation never followed by a ```json block", apiDocPath, pending.line)
	}
	if len(examples) == 0 {
		t.Fatalf("%s: no api-test annotations found — the reference is no longer executable", apiDocPath)
	}
	return examples
}

// docFixtures builds the three server states the documented examples
// run against: "main" is a converged 96-worker gateway (aggregates
// load and temp primed, cold registered but never fed, membership
// coverage faked in so /healthz reports ok), "starting" is a freshly
// built one, and "degraded" is the main fixture with the failure
// detector — driven on a virtual clock — judging worker span [0,48)
// dead.
func docFixtures(t *testing.T) map[string]http.Handler {
	t.Helper()
	const workers = 96
	var clockOffset time.Duration // the degraded fixture's virtual clock
	base := time.Now()
	build := func(names []string, h health.Config) *Server {
		s, err := New(Config{
			Workers:    workers,
			Seeds:      []string{"127.0.0.1:1"}, // never dialed: engine not started
			Aggregates: names,
			Health:     h,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	prime := func(s *Server) {
		for tick := 0; tick <= DefaultSmoothWindow; tick++ {
			s.obs.BeginRound(tick)
			s.obs.Receive(multi.Bundle{Count: workerCounts(workers), Masses: []multi.NamedMass{
				{Name: "load", Mass: pushsumrevert.Mass{W: 0.5, V: 0.5 * DemoMean("load", workers)}},
				{Name: "temp", Mass: pushsumrevert.Mass{W: 0.5, V: 0.5 * DemoMean("temp", workers)}},
			}})
			s.obs.EndRound(tick)
		}
		if err := s.tcp.RegisterGroup(0, gossip.NodeID(workers), "127.0.0.1:19321"); err != nil {
			t.Fatal(err)
		}
	}

	main := build([]string{"load", "temp", "cold"}, health.Config{})
	prime(main)

	degraded := build([]string{"load", "temp", "cold"}, health.Config{
		HeartbeatEvery: 100 * time.Millisecond,
		Now:            func() time.Time { return base.Add(clockOffset) },
	})
	prime(degraded)
	// Both halves of the worker population heartbeat once; then ten
	// virtual seconds pass and only [48,96) is heard again, so [0,48)
	// crosses the dead threshold while the rest stays alive.
	degraded.det.Observe(0, 48, "127.0.0.1:19321", 0)
	degraded.det.Observe(48, 96, "127.0.0.1:19322", 0)
	clockOffset = 10 * time.Second
	degraded.det.Observe(48, 96, "127.0.0.1:19322", 0)

	starting := build([]string{"load"}, health.Config{})
	return map[string]http.Handler{
		"main":     main.Handler(),
		"starting": starting.Handler(),
		"degraded": degraded.Handler(),
	}
}

// TestGatewayAPIDocExamples round-trips every documented example
// payload in docs/gateway-api.md against the real handlers: the status
// code, content type, and the exact JSON field names and value types
// must match the document. Top-level strings and booleans (error
// messages, status words, names, flags) must match exactly; numeric
// values and nested strings may differ (ticks, estimates, addresses).
func TestGatewayAPIDocExamples(t *testing.T) {
	fixtures := docFixtures(t)
	for _, ex := range parseAPIDoc(t) {
		at := fmt.Sprintf("%s:%d: %s %s", apiDocPath, ex.line, ex.method, ex.path)
		h, ok := fixtures[ex.fixture]
		if !ok {
			t.Errorf("%s: unknown fixture %q", at, ex.fixture)
			continue
		}
		var body *strings.Reader
		if ex.reqBody != "" {
			body = strings.NewReader(ex.reqBody)
		} else {
			body = strings.NewReader("")
		}
		req := httptest.NewRequest(ex.method, ex.path, body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != ex.status {
			t.Errorf("%s: documented status %d, handler returned %d (body %s)", at, ex.status, w.Code, w.Body)
			continue
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", at, ct)
		}
		var doc, got any
		if err := json.Unmarshal([]byte(ex.respJSON), &doc); err != nil {
			t.Errorf("%s: documented payload is not valid JSON: %v", at, err)
			continue
		}
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Errorf("%s: handler response is not valid JSON: %v", at, err)
			continue
		}
		if err := matchShape(doc, got, true); err != nil {
			t.Errorf("%s: response does not match the documented example: %v\ndocumented: %s\ngot:        %s",
				at, err, strings.TrimSpace(ex.respJSON), w.Body)
		}
	}
}

// matchShape compares a documented JSON value against a live one:
// object key sets must be identical (recursively), value kinds must
// agree, and at the top level strings and booleans must be equal —
// documented error messages and flags are part of the contract. For
// arrays the first documented element's shape must match the first
// live element's.
func matchShape(doc, got any, topLevel bool) error {
	switch d := doc.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("documented object, got %T", got)
		}
		for k := range d {
			if _, ok := g[k]; !ok {
				return fmt.Errorf("documented field %q missing from response", k)
			}
		}
		for k := range g {
			if _, ok := d[k]; !ok {
				return fmt.Errorf("response field %q is not documented", k)
			}
		}
		for k, dv := range d {
			if err := matchShape(dv, g[k], topLevel); err != nil {
				return fmt.Errorf("field %q: %w", k, err)
			}
		}
		return nil
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Errorf("documented array, got %T", got)
		}
		if len(d) == 0 {
			return nil
		}
		if len(g) == 0 {
			return fmt.Errorf("documented non-empty array, response is empty")
		}
		return matchShape(d[0], g[0], false)
	case string:
		g, ok := got.(string)
		if !ok {
			return fmt.Errorf("documented string %q, got %T", d, got)
		}
		if topLevel && g != d {
			return fmt.Errorf("documented %q, got %q", d, g)
		}
		return nil
	case bool:
		g, ok := got.(bool)
		if !ok {
			return fmt.Errorf("documented bool %v, got %T", d, got)
		}
		if topLevel && g != d {
			return fmt.Errorf("documented %v, got %v", d, g)
		}
		return nil
	case float64:
		if _, ok := got.(float64); !ok {
			return fmt.Errorf("documented number %v, got %T", d, got)
		}
		return nil
	case nil:
		if got != nil {
			return fmt.Errorf("documented null, got %T", got)
		}
		return nil
	default:
		return fmt.Errorf("unhandled documented value %T", doc)
	}
}
