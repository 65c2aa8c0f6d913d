package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os/signal"
	"strings"
	"syscall"

	"dynagg/internal/gateway"
)

// gatewayFlags is the `gateway` mode: join a running TCP cluster as a
// zero-mass observer span and serve its converged estimates over HTTP.
// Its flags bind straight into the gateway's Config.
func gatewayFlags(fs *flag.FlagSet) func(io.Writer) error {
	cfg := gateway.Config{Replace: true} // a restarted gateway reclaims its span
	countVar(fs, &cfg.Workers, "n", 256, "worker population `size` (the observer takes slot n)")
	seeds := fs.String("seeds", "", "the cluster's comma-separated bootstrap seed addresses (required)")
	fs.StringVar(&cfg.Listen, "listen", "", "the observer span's TCP listen address; default 127.0.0.1:0")
	listenHTTP := fs.String("listen-http", "127.0.0.1:8080", "HTTP listen address for the query API")
	aggregates := fs.String("aggregates", "load", "comma-separated initial aggregate names")
	fs.DurationVar(&cfg.TickEvery, "pace", gateway.DefaultTickEvery, "observer tick duty cycle; should match the workers' -pace")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "PRNG seed")
	return func(out io.Writer) error {
		cfg.Seeds, cfg.Aggregates = splitNames(*seeds), splitNames(*aggregates)
		return runGateway(out, cfg, *listenHTTP)
	}
}

// runGateway builds the observer gateway, bootstraps it into the
// cluster, and serves HTTP on listenHTTP until SIGINT/SIGTERM.
func runGateway(out io.Writer, cfg gateway.Config, listenHTTP string) error {
	if len(cfg.Seeds) == 0 {
		return fmt.Errorf("gateway: -seeds is required (the cluster's shared seed list)")
	}
	s, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(out, "gateway: observer span [%d,%d) listening on %s, bootstrapping from %s\n",
		cfg.Workers, cfg.Workers+1, s.TransportAddr(), strings.Join(cfg.Seeds, ","))
	if err := s.Start(ctx); err != nil {
		return fmt.Errorf("gateway: bootstrap: %w", err)
	}
	ln, err := net.Listen("tcp", listenHTTP)
	if err != nil {
		return fmt.Errorf("gateway: http listen: %w", err)
	}
	fmt.Fprintf(out, "gateway: membership complete; serving HTTP on http://%s\n", ln.Addr())

	if err := s.Serve(ctx, ln); err != nil && err != context.Canceled {
		return err
	}
	if err := s.Wait(); err != nil && err != context.Canceled {
		return err
	}
	fmt.Fprintln(out, "gateway: shut down cleanly")
	return nil
}
