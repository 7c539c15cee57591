package repro

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/timeu"
)

// CacheStats snapshots a Runner's analysis-cache counters.
type CacheStats = analysis.CacheStats

// MemoStats snapshots a Runner's interval-memo counters: interval lookups
// that found a kept draw (Hits) or drew (Misses), Figure-6(c) runs that
// took their 6(b) run's outcome (Taken), and Figure-6(b) runs that
// resumed from their 6(a) run's fork (Resumed).
type MemoStats struct {
	Hits, Misses, Taken, Resumed uint64
}

// RunnerConfig tunes a Runner. The zero value is the recommended setup.
type RunnerConfig struct {
	// CacheEntries bounds the offline-analysis LRU, and the total sets
	// the interval memo keeps: 0 means the default capacity
	// (analysis.DefaultCacheEntries); a negative value disables
	// memoization entirely (every run re-derives its analyses, every
	// sweep redraws its intervals, every Figure-6(b) run simulates from 0
	// and every Figure-6(c) run runs the engine — the pre-Runner
	// behavior, useful for benchmarking the caches themselves). The disabled cache and memo are passed down to
	// Sweep, so a -nocache session is uncached end to end.
	CacheEntries int
}

// Runner is a reusable simulation session: it memoizes per-set offline
// analyses (R-pattern tables, RTA response/promotion times, θ intervals)
// in a size-bounded LRU, keeps the task sets of recently generated sweep
// intervals in a bounded memo, and recycles engine working state through
// a scratch pool. Batches of Simulate calls and whole Sweeps thus avoid
// re-deriving analyses and re-allocating queues run after run, and
// sweeps of one population under several fault scenarios (Figure 6a, 6b
// and 6c) draw each interval once. The memo also hands each unit on to
// the next scenario of the same unit, once: a Figure-6(b) run resumes
// from its 6(a) run's fork at its fault instant instead of simulating
// the fault-free prefix again, and a 6(c) run whose fault plan provably
// fires no transient takes its 6(b) outcome, so only the others run the
// engine.
//
// A Runner is safe for concurrent use; results are bit-for-bit identical
// to the free-function path: the session skips only work it has proven
// identical (pure functions of the task set or of the interval's
// generation inputs, 6(b) prefixes that take the fault-free run's
// decisions, and 6(c) runs whose replayed fault draws match their 6(b)
// run's). The zero-configured NewRunner is what the
// package-level Simulate/Sweep wrappers use.
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
// memo and scratch pool; a Figure-6(b) sweep resumes its runs from the
// session's Figure-6(a) sweep of the same units, and a Figure-6(c) sweep
// takes the runs it can from the 6(b) sweep. On cancellation it
// returns the partial Report (completed intervals, in order) together
// with an error wrapping ctx.Err().
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

// MemoStats reports the session's interval-memo effectiveness; with
// memoization disabled every lookup misses and nothing is taken or
// resumed.
func (r *Runner) MemoStats() MemoStats {
	hits, misses := r.memo.Counts()
	return MemoStats{Hits: hits, Misses: misses, Taken: r.memo.Taken(), Resumed: r.memo.Resumed()}
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

// maxHorizonUS is 2^63, the first µs count past Time's range.
const maxHorizonUS = float64(math.MaxInt64)

// Horizon resolves the horizon a run of s covers when horizonMS
// milliseconds are asked for: horizonMS as timeu.FromMillis rounds it,
// or, for zero and negative values, the set's (m,k)-hyperperiod capped
// at 2000 ms. A value that is not finite, or whose µs count does not fit
// in Time, is an error: Go leaves the conversion of such a value
// implementation-dependent, so the run it asked for would depend on the
// CPU. Simulate, the analytical twin and the server all resolve their
// horizons here.
func Horizon(s *Set, horizonMS float64) (Time, error) {
	us := math.Round(horizonMS * float64(timeu.Millisecond))
	if math.IsNaN(us) || us >= maxHorizonUS || us < -maxHorizonUS {
		return 0, fmt.Errorf("horizon_ms must be finite and below %v in magnitude, got %v", maxHorizonUS/float64(timeu.Millisecond), horizonMS)
	}
	if h := Time(us); h > 0 {
		return h, nil
	}
	return s.MKHyperperiod(2000 * timeu.Millisecond), nil
}

// CheckTransientRate checks a run's transient fault rate per ms of
// execution: zero keeps the scenario's own rate and a positive value
// replaces it, while NaN, ±Inf and negative values are errors, with the
// text the server's 400 carries. A NaN or negative rate would otherwise
// run as zero, and +Inf would make every copy faulty. Simulate and the
// server check their rates here.
func CheckTransientRate(rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		return fmt.Errorf("transient_rate must be finite and at least 0, got %v", rate)
	}
	return nil
}

// simulate is the one code path every Simulate variant funnels through.
// With prods == nil and scr == nil it reproduces the standalone behavior
// exactly: fresh analyses, fresh engine state.
func simulate(ctx context.Context, s *Set, a Approach, cfg RunConfig, prods *analysis.Products, scr *sim.Scratch) (*Result, error) {
	horizon, err := Horizon(s, cfg.HorizonMS)
	if err != nil {
		return nil, err
	}
	if err := CheckTransientRate(cfg.TransientRate); err != nil {
		return nil, err
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
