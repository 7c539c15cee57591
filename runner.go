package repro

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/timeu"
)

// CacheStats snapshots a Runner's analysis-cache counters.
type CacheStats = analysis.CacheStats

// RunnerConfig tunes a Runner. The zero value is the recommended setup.
type RunnerConfig struct {
	// CacheEntries bounds the offline-analysis LRU, and the total sets
	// the interval memo keeps: 0 means the default capacity
	// (analysis.DefaultCacheEntries); a negative value disables
	// memoization entirely (every run re-derives its analyses and every
	// sweep redraws its intervals — the pre-Runner behavior, useful for
	// benchmarking the caches themselves). Both disabled caches are
	// passed down to Sweep, so a -nocache session is uncached end to end.
	CacheEntries int
}

// Runner is a reusable simulation session: it memoizes per-set offline
// analyses (R-pattern tables, RTA response/promotion times, θ intervals)
// in a size-bounded LRU, keeps the task sets of recently generated sweep
// intervals in a bounded memo, and recycles engine working state through
// a scratch pool. Batches of Simulate calls and whole Sweeps thus avoid
// re-deriving analyses and re-allocating queues run after run, and
// sweeps of one population under several fault scenarios (Figure 6a, 6b
// and 6c) draw each interval once.
//
// A Runner is safe for concurrent use; results are bit-for-bit identical
// to the free-function path (the caches only skip recomputation of pure
// functions of the task set or of the interval's generation inputs). The
// zero-configured NewRunner is what the package-level Simulate/Sweep
// wrappers use.
type Runner struct {
	cache *analysis.Cache // in passthrough mode when memoization is disabled
	pool  *sim.ScratchPool
	memo  *experiment.IntervalMemo // keeps nothing when memoization is disabled
}

// NewRunner builds a session with the given configuration.
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{
		cache: analysis.NewCache(cfg.CacheEntries),
		pool:  sim.NewScratchPool(),
		memo:  experiment.NewIntervalMemo(cfg.CacheEntries),
	}
}

// Simulate runs one task set under one approach, honoring ctx at
// event-loop granularity (a canceled context aborts the run promptly
// with an error wrapping ctx.Err()).
func (r *Runner) Simulate(ctx context.Context, s *Set, a Approach, cfg RunConfig) (*Result, error) {
	var prods *analysis.Products
	if cfg.Options.Offline == nil {
		prods = r.cache.Get(s, analysis.Options{
			Pattern:        cfg.Options.Pattern,
			HyperperiodCap: cfg.Options.HyperperiodCap,
		})
	}
	scr := r.pool.Get()
	defer r.pool.Put(scr)
	return simulate(ctx, s, a, cfg, prods, scr)
}

// Sweep runs a utilization sweep through the session's cache, interval
// memo and scratch pool. On cancellation it returns the partial Report
// (completed intervals, in order) together with an error wrapping
// ctx.Err().
func (r *Runner) Sweep(ctx context.Context, cfg SweepConfig) (*Report, error) {
	if cfg.Cache == nil {
		cfg.Cache = r.cache
	}
	if cfg.ScratchPool == nil {
		cfg.ScratchPool = r.pool
	}
	if cfg.IntervalMemo == nil {
		cfg.IntervalMemo = r.memo
	}
	return experiment.RunContext(ctx, cfg)
}

// CacheStats reports the session's analysis-cache effectiveness. With
// memoization disabled every Get counts as a miss (Capacity is negative
// and Hits stays zero).
func (r *Runner) CacheStats() CacheStats {
	return r.cache.Stats()
}

// OfflineAnalysis is the lazily-computed, memoized bundle of offline
// products for one task set: RTA response times and convergence flags,
// promotion intervals Yi, the θ postponement analysis (Defs. 2–5), the
// static pattern table and the Theorem-1 schedulability verdict. The
// accessors compute each product at most once and are safe for
// concurrent use.
type OfflineAnalysis = analysis.Products

// Analysis returns the session's memoized offline products for s under
// the paper's analysis options (R-pattern, default hyperperiod cap),
// served from the same LRU the session's simulations share: querying an
// analysis warms the cache for later Simulate calls and vice versa.
func (r *Runner) Analysis(s *Set) *OfflineAnalysis {
	return r.cache.Get(s, analysis.Options{})
}

// defaultRunner backs the package-level convenience functions, so plain
// Simulate/Sweep callers share one process-wide session.
var defaultRunner = NewRunner(RunnerConfig{})

// simulate is the one code path every Simulate variant funnels through.
// With prods == nil and scr == nil it reproduces the standalone behavior
// exactly: fresh analyses, fresh engine state.
func simulate(ctx context.Context, s *Set, a Approach, cfg RunConfig, prods *analysis.Products, scr *sim.Scratch) (*Result, error) {
	horizon := timeu.FromMillis(cfg.HorizonMS)
	if horizon <= 0 {
		horizon = s.MKHyperperiod(2000 * timeu.Millisecond)
	}
	opts := cfg.Options
	if opts.Offline == nil {
		opts.Offline = prods
	}
	return experiment.Simulate(ctx, s, a, opts, cfg.Scenario, cfg.TransientRate, cfg.Seed, sim.Config{
		Power:       cfg.Power,
		Horizon:     horizon,
		RecordTrace: cfg.RecordTrace,
		Sink:        cfg.Sink,
		Scratch:     scr,
	})
}
