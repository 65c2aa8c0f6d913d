// Command loadgen drives a closed-loop HTTP read workload against a
// running gateway (see cmd/dynaggsim's gateway mode) and reports
// throughput and latency percentiles.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080/aggregate/load \
//	        [-clients 32] [-duration 5s]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dynagg/internal/gateway"
)

func main() {
	url := flag.String("url", "", "request URL, e.g. http://127.0.0.1:8080/aggregate/load (required)")
	clients := flag.Int("clients", 32, "concurrent closed-loop requesters")
	duration := flag.Duration("duration", 5*time.Second, "load window")
	flag.Parse()
	if *url == "" {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "loadgen: -url is required")
		os.Exit(2)
	}
	rep, err := gateway.RunLoad(context.Background(), gateway.LoadConfig{
		URL:      *url,
		Clients:  *clients,
		Duration: *duration,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
	if rep.Requests == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: zero successful requests")
		os.Exit(1)
	}
}
