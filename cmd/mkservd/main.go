// Command mkservd serves the simulator over HTTP/JSON: a repro.Runner
// session behind admission control, request coalescing, a persistent
// result store and graceful drain (see internal/serve).
//
// Usage:
//
//	mkservd                                  # listen on 127.0.0.1:8080
//	mkservd -addr 127.0.0.1:0 -addrfile a    # ephemeral port, written to a
//	mkservd -rate 2000 -inflight 8 -queue 128 -drain 10s
//	mkservd -store /var/lib/mkss             # results survive restarts
//	mkservd -tenant-rate 50 -tenant-burst 100 -events events.jsonl
//
// Endpoints:
//
//	POST /v1/simulate   one run (coalesced across identical requests)
//	POST /v1/sweep      utilization sweep, streamed as chunked JSONL
//	GET  /v1/estimate   closed-form analytical-twin answer (also POST);
//	                    consumes no execution slot, refine=true falls
//	                    through to the /v1/simulate path byte-identically
//	GET  /v1/analyze    offline analysis products for a task set
//	GET  /healthz       liveness, drain state, store stats, p95
//	GET  /metrics       counters and gauges, text format
//
// With -store, simulate and sweep results persist in a content-addressed
// store under the given directory: a request whose key is stored answers
// from disk — byte-identical to a live run, no execution slot — and
// misses are written back. The directory is shared-format with mkfleet
// -store, so a fleet run warms a server and vice versa.
//
// With -tenant-rate, every request is accounted against its tenant (the
// X-MK-Tenant header, at most 128 bytes; "default" when absent) and a
// tenant exceeding its token-bucket quota receives a structured 429 (code
// "quota_exceeded") whose Retry-After is derived from that bucket's
// refill time.
//
// SIGINT/SIGTERM start the graceful drain: the listener stops accepting,
// in-flight requests get -drain to finish, and whatever remains is
// canceled (the drain summary reports how many had to be aborted).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/store"
)

type options struct {
	addr, addrFile string
	inflight       int
	queue          int
	rate           float64
	burst          int
	timeout        time.Duration
	drain          time.Duration
	cache          int
	quiet          bool

	storeDir     string
	storeCompact bool
	tenantRate   float64
	tenantBurst  int
	eventsPath   string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	flag.StringVar(&o.addrFile, "addrfile", "", "write the bound address to this file (for scripts using -addr :0)")
	flag.IntVar(&o.inflight, "inflight", 0, "max concurrently executing jobs (0 = default 4)")
	flag.IntVar(&o.queue, "queue", 0, "bounded job queue depth (0 = default 64, -1 = no queue)")
	flag.Float64Var(&o.rate, "rate", 0, "token-bucket request rate limit per second (0 = unlimited)")
	flag.IntVar(&o.burst, "burst", 0, "token bucket capacity (0 = rate)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-request simulation deadline")
	flag.DurationVar(&o.drain, "drain", 5*time.Second, "graceful drain window on SIGINT/SIGTERM")
	flag.IntVar(&o.cache, "cache", 0, "analysis cache entries (0 = default, <0 = disabled)")
	flag.BoolVar(&o.quiet, "q", false, "suppress lifecycle logging")
	flag.StringVar(&o.storeDir, "store", "", "persistent result store directory (empty = no store)")
	flag.BoolVar(&o.storeCompact, "store-compact", false, "compact the store after opening it")
	flag.Float64Var(&o.tenantRate, "tenant-rate", 0, "per-tenant request quota per second (0 = no tenant quotas)")
	flag.IntVar(&o.tenantBurst, "tenant-burst", 0, "per-tenant token bucket capacity (0 = tenant-rate)")
	flag.StringVar(&o.eventsPath, "events", "", "append the JSONL event stream (store hits/misses, quota rejections) to this file")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "mkservd: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var log io.Writer = os.Stderr
	if o.quiet {
		log = nil
	}
	cfg := serve.Config{
		Runner:           repro.NewRunner(repro.RunnerConfig{CacheEntries: o.cache}),
		MaxInFlight:      o.inflight,
		QueueDepth:       o.queue,
		RatePerSec:       o.rate,
		Burst:            o.burst,
		DefaultTimeout:   o.timeout,
		DrainWindow:      o.drain,
		TenantRatePerSec: o.tenantRate,
		TenantBurst:      o.tenantBurst,
		Log:              log,
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir, store.Options{Log: log})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		defer func() {
			if cerr := st.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "mkservd: close store: %v\n", cerr)
			}
		}()
		if o.storeCompact {
			if err := st.Compact(); err != nil {
				return fmt.Errorf("compact store: %w", err)
			}
		}
		if log != nil {
			stats := st.Stats()
			fmt.Fprintf(log, "mkservd: store %s: %d keys in %d segments (%d bytes)\n",
				o.storeDir, stats.Keys, stats.Segments, stats.DiskBytes)
		}
		cfg.Store = st
	}
	if o.eventsPath != "" {
		f, err := os.OpenFile(o.eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open events file: %w", err)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "mkservd: close events file: %v\n", cerr)
			}
		}()
		cfg.Events = f
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := l.Addr().String()
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}
	if log != nil {
		fmt.Fprintf(log, "mkservd: listening on %s\n", bound)
	}
	// SIGINT and SIGTERM both begin the graceful drain; serve.Run owns
	// the drain window and in-flight cancellation from here.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve.NewServer(cfg).Run(ctx, l)
}
