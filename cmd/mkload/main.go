// Command mkload load-tests a running mkservd: closed-loop (fixed
// concurrency) or open-loop (fixed request rate) workers hammer the
// server with a mixed request distribution and report throughput plus
// latency percentiles as a versioned mkss-bench/v1 JSON document — the
// repo's end-to-end serving benchmark (results/BENCH_serve.json).
//
// Usage:
//
//	mkload -addr 127.0.0.1:8080 -duration 5s -c 8
//	mkload -addr $A -mix simulate=0.45,estimate=0.40,analyze=0.10,sweep=0.05
//	mkload -addr $A -rate 500 -c 64 -out results/BENCH_serve.json
//
// 429 responses are counted as rejected (backpressure working), not as
// errors; coalesced responses are recognized by the X-Mkss-Coalesced
// header and store hits by X-Mkss-Store. SIGINT/SIGTERM stop the burst
// early and report what ran.
//
// -tenant stamps every request with the X-MK-Tenant header, for driving
// a server with per-tenant quotas. -distinct gives every simulate
// request a unique seed: identical requests coalesce into one
// computation server-side, so a coalescing-aware burst never builds real
// queue depth — distinct requests are how you load a server (or an
// autoscaling pool) for real.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
	"repro/internal/stats"
)

type options struct {
	addr     string
	duration time.Duration
	workers  int
	rate     float64
	mix      string
	setPath  string
	approach string
	horizon  float64
	seed     uint64
	out      string
	quiet    bool
	tenant   string
	distinct bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "mkservd address (host:port)")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "burst duration")
	flag.IntVar(&o.workers, "c", 8, "concurrent workers (closed-loop concurrency / open-loop cap)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop request rate per second (0 = closed loop)")
	flag.StringVar(&o.mix, "mix", "simulate=1", "request mix, e.g. simulate=0.45,estimate=0.40,analyze=0.10,sweep=0.05")
	flag.StringVar(&o.setPath, "set", "", "JSON task-set spec for simulate/analyze requests (- = stdin; default: the paper's §III set)")
	flag.StringVar(&o.approach, "approach", "selective", "approach for simulate requests")
	flag.Float64Var(&o.horizon, "horizon", 20, "simulate horizon in ms")
	flag.Uint64Var(&o.seed, "seed", 1, "mix-draw seed (reproducible request sequences)")
	flag.StringVar(&o.out, "out", "", "write the mkss-bench/v1 JSON document here (default: stdout)")
	flag.BoolVar(&o.quiet, "q", false, "suppress the human-readable summary")
	flag.StringVar(&o.tenant, "tenant", "", "X-MK-Tenant header value (empty = server default tenant)")
	flag.BoolVar(&o.distinct, "distinct", false, "give every simulate request a unique seed (defeats coalescing and the store; builds real queue depth)")
	flag.Parse()
	// SIGTERM behaves like SIGINT: stop the burst, report partial results.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintf(os.Stderr, "mkload: %v\n", err)
		os.Exit(1)
	}
}

// endpointNames orders the mix endpoints for deterministic draws/output.
var endpointNames = []string{"simulate", "estimate", "analyze", "sweep"}

// parseMix parses "a=0.8,b=0.2" into normalized weights over the known
// endpoints.
func parseMix(s string) (map[string]float64, error) {
	mix := map[string]float64{}
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("mix weight %q must be a finite non-negative number", val)
		}
		known := false
		for _, e := range endpointNames {
			known = known || e == name
		}
		if !known {
			return nil, fmt.Errorf("unknown mix endpoint %q (want %s)", name, strings.Join(endpointNames, "|"))
		}
		mix[name] += w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix has no positive weight")
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("mix weights sum beyond the float range")
	}
	for k := range mix {
		mix[k] /= total
	}
	return mix, nil
}

// maxRate is the highest -rate whose pacing interval, 1s/rate, is still
// at least one nanosecond.
const maxRate = 1e9

// checkRate accepts an open-loop rate in [0, maxRate]; 0 is the closed
// loop.
func checkRate(rate float64) error {
	if !(rate >= 0 && rate <= maxRate) {
		return fmt.Errorf("-rate %v must be a number in [0, %g]", rate, float64(maxRate))
	}
	return nil
}

// requestSpec is one prepared request: every invocation of an endpoint
// sends the identical payload through the shared API client, which is
// what exercises the server's coalescing and analysis cache.
type requestSpec struct {
	name string
	do   func(ctx context.Context, cl *client.Client) (client.Info, error)
}

// sample accumulates one endpoint's latencies and counts.
type sample struct {
	latencies []float64 // milliseconds
	errors    int
	rejected  int
	coalesced int
	storeHits int
}

// workerResult is one worker's private accounting (merged afterwards).
type workerResult map[string]*sample

func run(ctx context.Context, o options) error {
	// An empty address makes the client's base URL "http:/", which sends
	// every request to a host named after its first path segment.
	if o.addr == "" {
		return fmt.Errorf("-addr must name the mkservd address (host:port)")
	}
	if err := checkRate(o.rate); err != nil {
		return err
	}
	// -c sizes the result slice and the open loop's permit buffer; a
	// negative count panics in make, and 0 starts no worker.
	if o.workers < 1 {
		return fmt.Errorf("-c %d must be at least 1", o.workers)
	}
	mix, err := parseMix(o.mix)
	if err != nil {
		return err
	}
	specs, err := buildSpecs(o, mix)
	if err != nil {
		return err
	}
	// Cumulative weights over the fixed endpoint order make the draw
	// reproducible for a given -seed.
	var names []string
	var cum []float64
	acc := 0.0
	for _, e := range endpointNames {
		if w := mix[e]; w > 0 {
			acc += w
			names = append(names, e)
			cum = append(cum, acc)
		}
	}

	// Open loop: a pacer feeds permits at -rate; workers block on it.
	// Closed loop: the permit channel is nil and workers free-run.
	var pace chan struct{}
	bctx, cancel := context.WithTimeout(ctx, o.duration)
	defer cancel()
	if o.rate > 0 {
		pace = make(chan struct{}, o.workers)
		interval := time.Duration(float64(time.Second) / o.rate)
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-bctx.Done():
					return
				case <-tick.C:
					select {
					case pace <- struct{}{}:
					default: // server saturated; drop the permit
					}
				}
			}
		}()
	}

	// The client sends each request once: a load test measures the
	// server's raw behavior, so every rejection and error surfaces as
	// itself.
	cl := client.New(client.Config{Addr: o.addr, HTTPClient: &http.Client{Timeout: 60 * time.Second}, Tenant: o.tenant})
	results := make([]workerResult, o.workers)
	var wg sync.WaitGroup
	start := time.Now() //mklint:allow determinism — load-test wall clock; throughput denominator
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRand(stats.DeriveSeed(o.seed, uint64(w)))
			res := workerResult{}
			for _, n := range names {
				res[n] = &sample{}
			}
			results[w] = res
			for bctx.Err() == nil {
				if pace != nil {
					select {
					case <-pace:
					case <-bctx.Done():
						return
					}
				}
				draw := rng.Float64()
				name := names[len(names)-1]
				for i, c := range cum {
					if draw < c {
						name = names[i]
						break
					}
				}
				doRequest(bctx, cl, specs[name], res[name])
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Now().Sub(start) //mklint:allow determinism — load-test wall clock; throughput denominator

	doc := buildDoc(o, mix, results, elapsed)
	// The burst context may already be cancelled (SIGINT); snapshot the
	// server's metrics on a fresh short deadline so a partial run still
	// carries them.
	mctx, mcancel := context.WithTimeout(context.Background(), 5*time.Second)
	if snap, err := cl.Metrics(mctx); err == nil {
		doc.Server = snap
	} else {
		fmt.Fprintf(os.Stderr, "mkload: metrics snapshot: %v\n", err)
	}
	mcancel()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.out != "" {
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	} else {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	}
	if !o.quiet {
		printSummary(os.Stderr, doc, ctx.Err() != nil)
	}
	if doc.Requests == 0 {
		return fmt.Errorf("no request succeeded against %s", o.addr)
	}
	return nil
}

// buildSpecs prepares the per-endpoint request bodies once; every
// request of an endpoint is identical, which is what exercises the
// server's coalescing and analysis cache.
func buildSpecs(o options, mix map[string]float64) (map[string]requestSpec, error) {
	var spec repro.SetSpec
	if o.setPath != "" {
		set, err := repro.LoadSetFile(o.setPath)
		if err != nil {
			return nil, err
		}
		for i := range set.Tasks {
			t := &set.Tasks[i]
			spec.Tasks = append(spec.Tasks, repro.TaskSpec{
				Name:       t.Name,
				PeriodMS:   float64(t.Period) / 1000,
				DeadlineMS: float64(t.Deadline) / 1000,
				WCETMS:     float64(t.WCET) / 1000,
				M:          t.M,
				K:          t.K,
			})
		}
	} else {
		spec = repro.SetSpec{Tasks: []repro.TaskSpec{
			{PeriodMS: 5, DeadlineMS: 4, WCETMS: 3, M: 2, K: 4},
			{PeriodMS: 10, DeadlineMS: 10, WCETMS: 3, M: 1, K: 2},
		}}
	}
	specs := map[string]requestSpec{}
	if mix["simulate"] > 0 {
		req := wire.SimulateRequest{Set: spec, Approach: o.approach, HorizonMS: o.horizon}
		// With -distinct each request draws a fresh seed, so no two
		// requests share a coalescing flight or a store key: every one is
		// real work, which is what builds the queue depth an autoscaler
		// (or a backpressure test) needs to see.
		var seq atomic.Uint64
		specs["simulate"] = requestSpec{name: "simulate", do: func(ctx context.Context, cl *client.Client) (client.Info, error) {
			r := req
			if o.distinct {
				r.Seed = o.seed + seq.Add(1)
			}
			_, info, err := cl.Simulate(ctx, r)
			return info, err
		}}
	}
	if mix["estimate"] > 0 {
		req := wire.EstimateRequest{Set: spec, Approach: o.approach, HorizonMS: o.horizon}
		specs["estimate"] = requestSpec{name: "estimate", do: func(ctx context.Context, cl *client.Client) (client.Info, error) {
			_, _, info, err := cl.Estimate(ctx, req)
			return info, err
		}}
	}
	if mix["analyze"] > 0 {
		set := spec
		specs["analyze"] = requestSpec{name: "analyze", do: func(ctx context.Context, cl *client.Client) (client.Info, error) {
			_, info, err := cl.Analyze(ctx, set)
			return info, err
		}}
	}
	if mix["sweep"] > 0 {
		req := wire.SweepRequest{SetsPerInterval: 1, MaxCandidates: 100, Lo: 0.3, Hi: 0.5}
		specs["sweep"] = requestSpec{name: "sweep", do: func(ctx context.Context, cl *client.Client) (client.Info, error) {
			return cl.SweepStream(ctx, req, nil) // drain the JSONL stream
		}}
	}
	return specs, nil
}

// doRequest issues one request and records its latency or failure.
func doRequest(ctx context.Context, cl *client.Client, spec requestSpec, res *sample) {
	t0 := time.Now() //mklint:allow determinism — per-request latency measurement is the command's purpose
	info, err := spec.do(ctx, cl)
	lat := float64(time.Now().Sub(t0)) / 1e6 //mklint:allow determinism — per-request latency measurement is the command's purpose
	if err != nil {
		var herr *client.HTTPError
		switch {
		case ctx.Err() != nil:
			// The burst ended mid-request; not the server's fault.
		case errors.As(err, &herr) && herr.Status == http.StatusTooManyRequests:
			res.rejected++ // backpressure working, not an error
		default:
			res.errors++
		}
		return
	}
	if info.Coalesced {
		res.coalesced++
	}
	if info.StoreHit {
		res.storeHits++
	}
	res.latencies = append(res.latencies, lat)
}

// latencyDoc summarizes one latency distribution in milliseconds.
type latencyDoc struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// endpointDoc is one endpoint's outcome counts and latency summary.
type endpointDoc struct {
	Requests  int        `json:"requests"`
	Errors    int        `json:"errors"`
	Rejected  int        `json:"rejected"`
	Coalesced int        `json:"coalesced"`
	StoreHits int        `json:"store_hits"`
	Latency   latencyDoc `json:"latency"`
}

// benchDoc is the versioned serving-benchmark artifact.
type benchDoc struct {
	Schema      string                 `json:"schema"` // "mkss-bench/v1"
	Bench       string                 `json:"bench"`  // "serve"
	DurationMS  float64                `json:"duration_ms"`
	Concurrency int                    `json:"concurrency"`
	RatePerSec  float64                `json:"rate_per_sec"` // 0 = closed loop
	Mix         map[string]float64     `json:"mix"`
	Requests    int                    `json:"requests"`
	Errors      int                    `json:"errors"`
	Rejected    int                    `json:"rejected"`
	Coalesced   int                    `json:"coalesced"`
	StoreHits   int                    `json:"store_hits"`
	ReqPerSec   float64                `json:"req_per_sec"`
	Latency     latencyDoc             `json:"latency"`
	Endpoints   map[string]endpointDoc `json:"endpoints"`
	Server      map[string]float64     `json:"server,omitempty"`
}

func summarize(lats []float64) latencyDoc {
	if len(lats) == 0 {
		return latencyDoc{}
	}
	sort.Float64s(lats)
	var sum float64
	for _, l := range lats {
		sum += l
	}
	q := func(p float64) float64 {
		i := int(p*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return latencyDoc{
		Count:  len(lats),
		MeanMS: sum / float64(len(lats)),
		P50MS:  q(0.50),
		P95MS:  q(0.95),
		P99MS:  q(0.99),
		MaxMS:  lats[len(lats)-1],
	}
}

func buildDoc(o options, mix map[string]float64, results []workerResult, elapsed time.Duration) benchDoc {
	doc := benchDoc{
		Schema:      "mkss-bench/v1",
		Bench:       "serve",
		DurationMS:  float64(elapsed) / 1e6,
		Concurrency: o.workers,
		RatePerSec:  o.rate,
		Mix:         mix,
		Endpoints:   map[string]endpointDoc{},
	}
	var all []float64
	merged := map[string]*sample{}
	for _, wr := range results {
		for name, s := range wr {
			m, ok := merged[name]
			if !ok {
				m = &sample{}
				merged[name] = m
			}
			m.latencies = append(m.latencies, s.latencies...)
			m.errors += s.errors
			m.rejected += s.rejected
			m.coalesced += s.coalesced
			m.storeHits += s.storeHits
		}
	}
	for name, m := range merged {
		doc.Endpoints[name] = endpointDoc{
			Requests:  len(m.latencies),
			Errors:    m.errors,
			Rejected:  m.rejected,
			Coalesced: m.coalesced,
			StoreHits: m.storeHits,
			Latency:   summarize(append([]float64(nil), m.latencies...)),
		}
		doc.Requests += len(m.latencies)
		doc.Errors += m.errors
		doc.Rejected += m.rejected
		doc.Coalesced += m.coalesced
		doc.StoreHits += m.storeHits
		all = append(all, m.latencies...)
	}
	doc.Latency = summarize(all)
	if elapsed > 0 {
		doc.ReqPerSec = float64(doc.Requests) / (float64(elapsed) / float64(time.Second))
	}
	return doc
}

func printSummary(w io.Writer, doc benchDoc, interrupted bool) {
	note := ""
	if interrupted {
		note = "  (interrupted — partial burst)"
	}
	fmt.Fprintf(w, "mkload: %d ok, %d rejected, %d errors in %.1fs → %.0f req/s%s\n",
		doc.Requests, doc.Rejected, doc.Errors, doc.DurationMS/1000, doc.ReqPerSec, note)
	fmt.Fprintf(w, "        latency p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms   coalesced %d  store hits %d\n",
		doc.Latency.P50MS, doc.Latency.P95MS, doc.Latency.P99MS, doc.Latency.MaxMS, doc.Coalesced, doc.StoreHits)
	if v, ok := doc.Server["mkservd_coalesced_total"]; ok {
		fmt.Fprintf(w, "        server: coalesced_total %.0f, rejected_total %.0f, requests_total %.0f\n",
			v, doc.Server["mkservd_rejected_total"], doc.Server["mkservd_requests_total"])
	}
}
