package gateway

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"dynagg/internal/protocol/multi"
	"dynagg/internal/protocol/pushsumrevert"
)

// primedServer builds a gateway whose observer has already converged —
// by feeding it synthetic mass bundles directly, no cluster — so the
// benchmarks measure the serving path, not gossip.
func primedServer(tb testing.TB, names []string) *Server {
	tb.Helper()
	s, err := New(Config{
		Workers:    64,
		Seeds:      []string{"127.0.0.1:1"}, // never dialed: engine not started
		Aggregates: names,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	for tick := 0; tick <= DefaultSmoothWindow; tick++ {
		s.obs.BeginRound(tick)
		masses := make([]multi.NamedMass, 0, len(names))
		for _, name := range names {
			masses = append(masses, multi.NamedMass{Name: name, Mass: pushsumrevert.Mass{W: 0.5, V: 0.5 * DemoMean(name, 64)}})
		}
		s.obs.Receive(multi.Bundle{Masses: masses})
		s.obs.EndRound(tick)
	}
	return s
}

// BenchmarkGatewayServe measures the in-process serving path: handler
// dispatch, state read under the observer lock, JSON encoding. This is
// the ≥100k req/s acceptance number — the handler itself sustains far
// more; the socket benchmark below adds kernel round-trips.
func BenchmarkGatewayServe(b *testing.B) {
	if testing.Short() {
		b.Skip("req/s needs a real measurement window, not the -short 1x smoke; run make bench-gateway")
	}
	s := primedServer(b, []string{"load"})
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, "/aggregate/load", nil)
		for pb.Next() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkGatewayHTTPSocket measures the same read over real loopback
// sockets with keep-alive connections, one per parallel client.
func BenchmarkGatewayHTTPSocket(b *testing.B) {
	if testing.Short() {
		b.Skip("req/s needs a real measurement window, not the -short 1x smoke; run make bench-gateway")
	}
	s := primedServer(b, []string{"load"})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	url := hs.URL + "/aggregate/load"
	b.SetParallelism(max(1, 32/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		for pb.Next() {
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		client.CloseIdleConnections()
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestLoadSmoke drives the RunLoad harness against a primed gateway
// for a short window and asserts reads actually succeeded and the run
// shut down cleanly. The CI gateway lane runs it with
// GATEWAY_LOAD_SECONDS=5 as the load smoke; by default it keeps to the
// sub-second budget of a unit test.
func TestLoadSmoke(t *testing.T) {
	dur := 300 * time.Millisecond
	if sec := os.Getenv("GATEWAY_LOAD_SECONDS"); sec != "" {
		d, err := time.ParseDuration(sec + "s")
		if err != nil {
			t.Fatalf("GATEWAY_LOAD_SECONDS=%q: %v", sec, err)
		}
		dur = d
	}
	s := primedServer(t, []string{"load"})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	rep, err := RunLoad(context.Background(), LoadConfig{
		URL:      hs.URL + "/aggregate/load",
		Clients:  8,
		Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("load run completed zero successful reads")
	}
	if rep.Errors != 0 {
		t.Errorf("load run saw %d errors", rep.Errors)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("implausible latency percentiles: p50 %v p99 %v", rep.P50, rep.P99)
	}
	t.Logf("%s", rep)
	t.Logf("%s", rep.BenchLine("GatewayLoadSmoke"))
}
