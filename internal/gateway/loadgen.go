package gateway

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadConfig drives RunLoad: a closed-loop read workload against a
// gateway's HTTP front end.
type LoadConfig struct {
	// URL is the full request URL, typically
	// "http://host:port/aggregate/load".
	URL string
	// Clients is the number of concurrent closed-loop requesters
	// (0 means 8).
	Clients int
	// Duration is how long to drive load (0 means 3s).
	Duration time.Duration
}

// LoadReport summarizes one RunLoad run.
type LoadReport struct {
	// Requests is the number of completed requests with a 200 status.
	Requests int64
	// Errors counts transport failures and non-200 statuses.
	Errors int64
	// Elapsed is the measured wall-clock window.
	Elapsed time.Duration
	// RPS is Requests divided by Elapsed seconds.
	RPS float64
	// P50 and P99 are response-latency percentiles over the sampled
	// requests (every request is sampled).
	P50 time.Duration
	P99 time.Duration
}

// String renders the report for logs.
func (r LoadReport) String() string {
	return fmt.Sprintf("%d reqs (%d errors) in %v: %.0f req/s, p50 %v, p99 %v",
		r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond), r.RPS, r.P50, r.P99)
}

// RunLoad drives Clients concurrent closed-loop GET requesters at the
// URL for the Duration and reports throughput and latency. Each
// client reuses one keep-alive connection (http.Transport default),
// so the measured path is handler execution, not connection setup.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	if cfg.URL == "" {
		return LoadReport{}, fmt.Errorf("gateway: LoadConfig.URL is empty")
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 8
	}
	dur := cfg.Duration
	if dur <= 0 {
		dur = 3 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()

	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	type shard struct {
		requests int64
		errors   int64
		lats     []time.Duration
	}
	shards := make([]shard, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.URL, nil)
				if err != nil {
					s.errors++
					continue
				}
				resp, err := client.Do(req)
				if err != nil {
					if ctx.Err() != nil {
						return // cancellation, not a server error
					}
					s.errors++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					s.errors++
					continue
				}
				s.requests++
				s.lats = append(s.lats, time.Since(t0))
			}
		}(&shards[c])
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := LoadReport{Elapsed: elapsed}
	var lats []time.Duration
	for i := range shards {
		rep.Requests += shards[i].requests
		rep.Errors += shards[i].errors
		lats = append(lats, shards[i].lats...)
	}
	if elapsed > 0 {
		rep.RPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50 = lats[len(lats)*50/100]
		rep.P99 = lats[len(lats)*99/100]
	}
	return rep, nil
}
