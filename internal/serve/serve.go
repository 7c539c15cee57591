// Package serve exposes a repro.Runner session over HTTP/JSON — the
// mkservd daemon's engine room. It layers the serving concerns the
// simulator itself does not have on top of the PR-2 session API:
//
//   - admission control: a token bucket bounds the accepted request
//     rate, and a bounded job queue with backpressure (429 + Retry-After
//     when full) keeps simulation work from oversubscribing the host;
//   - request coalescing: concurrent identical requests — keyed by the
//     store key of their result — share one computation whose documents
//     every request streams (one for /v1/simulate, the rows of a
//     /v1/sweep), so a thundering herd of equal queries costs one
//     simulation;
//   - per-request deadlines: every request's context, bounded by its
//     timeout_ms (or the server default), propagates into
//     SimulateContext/SweepContext, so a disconnecting client frees its
//     shard at event-loop granularity;
//   - graceful drain: on shutdown the server stops accepting, finishes
//     in-flight work within the drain window, and aborts whatever is
//     left when the window expires — counting the aborts it had to do.
//
// The package is stdlib-only (net/http); all wall-clock reads go
// through an injectable clock so tests stay deterministic.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Config tunes a Server. The zero value of every field picks a sensible
// default (see NewServer).
type Config struct {
	// Runner is the simulation session behind every endpoint; nil builds
	// a fresh default session. Sharing one Runner across the server means
	// /v1/analyze queries and /v1/simulate runs warm the same LRU.
	Runner *repro.Runner
	// MaxInFlight bounds concurrently executing simulation jobs
	// (default: 2×GOMAXPROCS via runtime.NumCPU is deliberately NOT used —
	// the sweep endpoint parallelizes internally, so a small number of
	// jobs saturates the host; default 4).
	MaxInFlight int
	// QueueDepth bounds jobs waiting for an execution slot; an admitted
	// request beyond MaxInFlight waits here, and a request arriving with
	// the queue full is rejected with 429 + Retry-After (default 64).
	QueueDepth int
	// RatePerSec, when positive, token-bucket-limits the accepted request
	// rate across all endpoints; zero disables rate limiting.
	RatePerSec float64
	// Burst is the token bucket capacity (default: max(1, RatePerSec)).
	Burst int
	// DefaultTimeout caps a request's simulation work when the request
	// carries no timeout_ms of its own (default 30s).
	DefaultTimeout time.Duration
	// DrainWindow bounds the graceful shutdown: in-flight requests get
	// this long to finish before their contexts are canceled (default 5s).
	DrainWindow time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Store, when non-nil, is the persistent result store consulted
	// before admission: a /v1/simulate or /v1/sweep result whose key is
	// stored is served from disk, byte-identical to a live run, without
	// consuming an execution slot; misses are written back after the run.
	Store *store.Store
	// TenantRatePerSec, when positive, enforces a per-tenant token-bucket
	// quota (tenant from the X-MK-Tenant header, DefaultTenant otherwise)
	// on top of the global rate limit. Zero disables tenant quotas.
	TenantRatePerSec float64
	// TenantBurst is each tenant bucket's capacity (default:
	// max(1, TenantRatePerSec)).
	TenantBurst int
	// Events, when non-nil, receives the JSONL event stream (schema
	// mkss-serve-event/v1): store hits/misses/write-backs and per-tenant
	// quota rejections, one line each.
	Events io.Writer
	// Log receives lifecycle and error lines; nil discards them.
	Log io.Writer
	// Now is the wall clock (tests inject a fake one); nil means time.Now.
	Now func() time.Time
}

// Server is the HTTP serving layer over one Runner session. Create with
// NewServer; serve via Handler (any http.Server) or Run (managed
// lifecycle with graceful drain).
type Server struct {
	cfg    Config
	runner *repro.Runner
	now    func() time.Time

	bucket  *tokenBucket
	adm     *admission
	flights *coalescer
	tenants *tenantLimiter
	events  *eventLog

	// quotaRejections counts per-tenant quota rejections for /healthz
	// and /metrics (fed by tenants, which holds a pointer to it).
	quotaRejections metrics.TenantCounter

	// stop is canceled when the drain window expires; every in-flight
	// request's work context is canceled through it.
	stop      context.Context //mklint:allow ctxflow — server-lifetime drain signal, not a per-call context
	stopWork  context.CancelFunc
	draining  atomic.Bool
	inflight  atomic.Int64
	queued    atomic.Int64
	requests  atomic.Uint64
	rejected  atomic.Uint64
	coalesced atomic.Uint64
	failures  atomic.Uint64
	aborted   atomic.Uint64

	// agg accumulates the run counters of every simulation the server
	// actually executed (coalesced followers share their leader's run and
	// are not double counted).
	aggMu   sync.Mutex
	agg     metrics.Counters
	aggRuns uint64
}

// NewServer builds a Server, applying the documented defaults.
func NewServer(cfg Config) *Server {
	if cfg.Runner == nil {
		cfg.Runner = repro.NewRunner(repro.RunnerConfig{})
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.DrainWindow <= 0 {
		cfg.DrainWindow = 5 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Now == nil {
		cfg.Now = time.Now // the one sanctioned wall-clock source of the package
	}
	s := &Server{
		cfg:     cfg,
		runner:  cfg.Runner,
		now:     cfg.Now,
		flights: newCoalescer(),
	}
	s.stop, s.stopWork = context.WithCancel(context.Background())
	if cfg.RatePerSec > 0 {
		s.bucket = newTokenBucket(cfg.RatePerSec, cfg.Burst, cfg.Now)
	}
	if cfg.TenantRatePerSec > 0 {
		s.tenants = newTenantLimiter(cfg.TenantRatePerSec, cfg.TenantBurst, cfg.Now, &s.quotaRejections)
	}
	s.events = newEventLog(cfg.Events, cfg.Now, cfg.Log)
	s.adm = newAdmission(cfg.MaxInFlight, cfg.QueueDepth, &s.queued)
	return s
}

// Handler returns the server's route table. Every route is also the
// documentation of the public surface:
//
//	POST /v1/simulate   one run, coalesced and cached
//	POST /v1/sweep      streaming utilization sweep (chunked JSONL)
//	GET  /v1/estimate   analytical-twin answer, no execution slot
//	                    (also POST; refine=true falls through to the
//	                    /v1/simulate path, byte-identical)
//	GET  /v1/analyze    offline products for a task set
//	GET  /healthz       liveness + drain state
//	GET  /metrics       counters and gauges, text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/simulate", s.observe(s.handleSimulate))
	mux.Handle("/v1/estimate", s.observe(s.handleEstimate))
	mux.Handle("/v1/sweep", s.observe(s.handleSweep))
	mux.Handle("/v1/analyze", s.observe(s.handleAnalyze))
	mux.Handle("/healthz", s.observe(s.handleHealthz))
	mux.Handle("/metrics", s.observe(s.handleMetrics))
	return mux
}

// observe wraps a handler with the request gauges and the drain gate:
// once draining, every endpoint but /healthz and /metrics answers 503 so
// lingering keep-alive connections stop submitting work.
func (s *Server) observe(h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.draining.Load() && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
			w.Header().Set("Connection", "close")
			s.reject(w, http.StatusServiceUnavailable, 0, "server is draining")
			return
		}
		h(w, r)
	})
}

// Load reports the server's load: the jobs waiting for an execution
// slot and the HTTP requests in flight, this one included when called
// from a handler. It is what /healthz and /metrics publish and what an
// elastic pool scales on.
func (s *Server) Load() (queued, inflight int64) {
	return s.queued.Load(), s.inflight.Load()
}

// Run serves HTTP on l until ctx is canceled, then drains gracefully:
// stop accepting, let in-flight requests finish within the drain window,
// cancel whatever remains, and report the abort count. It returns nil
// after a clean drain (even if some requests had to be aborted — the
// aborts are visible in the log line and the aborted counter).
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	fmt.Fprintf(s.cfg.Log, "mkservd: draining (window %v, %d in flight)\n",
		s.cfg.DrainWindow, s.inflight.Load())
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainWindow)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		// The window expired with handlers still running: abort their
		// work contexts and give them a moment to unwind before closing
		// the remaining connections outright.
		s.stopWork()
		fctx, fcancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer fcancel()
		if err := hs.Shutdown(fctx); err != nil {
			if cerr := hs.Close(); cerr != nil {
				fmt.Fprintf(s.cfg.Log, "mkservd: close: %v\n", cerr)
			}
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(s.cfg.Log, "mkservd: drained (%d requests served, %d in-flight aborted)\n",
		s.requests.Load(), s.aborted.Load())
	return nil
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds, about
// 292 years; a larger one would wrap to a negative, already expired
// deadline.
const maxTimeoutMS = float64(math.MaxInt64 / int64(time.Millisecond))

// checkTimeout bounds a request's timeout_ms: it must be finite and at
// most maxTimeoutMS. Zero and negative values mean the server default.
func checkTimeout(ms float64) error {
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms > maxTimeoutMS {
		return fmt.Errorf("timeout_ms must be finite and at most %v, got %v", maxTimeoutMS, ms)
	}
	return nil
}

// workCtx derives the context one request's simulation work runs under:
// the client's context, bounded by the request deadline (checked by
// checkTimeout), and canceled early when the drain window expires.
func (s *Server) workCtx(r *http.Request, timeoutMS float64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS * float64(time.Millisecond))
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	unhook := context.AfterFunc(s.stop, func() {
		s.aborted.Add(1)
		cancel()
	})
	return ctx, func() { unhook(); cancel() }
}

// storeGet reads key from the result store, emitting the hit or miss
// event; without a store every read misses silently.
func (s *Server) storeGet(key, tenant string) ([]byte, bool) {
	if s.cfg.Store == nil {
		return nil, false
	}
	if val, ok := s.cfg.Store.Get(key); ok {
		s.events.emit(eventStoreHit, key, tenant)
		return val, true
	}
	s.events.emit(eventStoreMiss, key, tenant)
	return nil, false
}

// storePut writes a computed document back to the result store, so the
// next process lifetime (or the next fleet run) serves it without
// simulating. A store failure costs only future hits, never this
// response.
func (s *Server) storePut(key string, val []byte) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Put(key, val); err != nil {
		fmt.Fprintf(s.cfg.Log, "mkservd: store write-back: %v\n", err)
		return
	}
	s.events.emit(eventStoreWrite, key, "")
}

// recordRuns folds the summed counters of runs executed simulations into
// the server aggregate surfaced by /metrics.
func (s *Server) recordRuns(runs int, c metrics.Counters) {
	s.aggMu.Lock()
	s.agg = s.agg.Add(c)
	s.aggRuns += uint64(runs)
	s.aggMu.Unlock()
}
