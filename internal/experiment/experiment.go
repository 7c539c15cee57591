// Package experiment regenerates the paper's evaluation (Figure 6): a
// sweep over total (m,k)-utilization intervals, with 20 schedulable task
// sets per interval, comparing the active energy of MKSS_ST (the
// reference), MKSS_DP and MKSS_selective under three fault scenarios —
// no faults (6a), one permanent fault (6b), and permanent plus Poisson
// transient faults (6c). Energies are reported normalized to MKSS_ST per
// set and averaged per interval, which is how the figure presents them.
package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// Config parameterizes a sweep; DefaultConfig reproduces Figure 6.
type Config struct {
	// Seed makes the whole sweep reproducible: task-set generation and
	// fault injection derive independent sub-streams from it.
	Seed uint64
	// Intervals are the (m,k)-utilization buckets (paper: width 0.1).
	Intervals []workload.Interval
	// SetsPerInterval and MaxCandidates implement the paper's "at least
	// 20 task sets schedulable or at least 5000 task sets generated".
	SetsPerInterval int
	MaxCandidates   int
	// Scenario selects the fault setting (Figure 6a/b/c).
	Scenario fault.Scenario
	// Approaches to compare; ST is always run (it is the normalizer).
	Approaches []core.Approach
	// Workload generation parameters (zero value → workload.DefaultConfig).
	Workload workload.Config
	// CoreOpts tune the policies (ablations); zero value is the paper.
	CoreOpts core.Options
	// Power is the energy model (zero value → sim.DefaultPower()).
	Power sim.PowerModel
	// MinHorizon and HorizonCap bound the per-set simulation horizon: the
	// (m,k)-hyperperiod extended to at least MinHorizon, capped at
	// HorizonCap. Defaults: 500 ms and 2 s.
	MinHorizon timeu.Time
	HorizonCap timeu.Time
	// IntervalOffset shifts the per-interval seed derivation: interval i
	// of this sweep draws the generation and fault sub-streams interval
	// IntervalOffset+i of a whole sweep with the same Seed would draw. It
	// lets a caller split one logical sweep into per-interval runs (the
	// streaming /v1/sweep endpoint) whose rows match the batch run bit
	// for bit. Zero — the default — leaves the derivation unchanged.
	IntervalOffset int
	// Workers bounds simulation parallelism (0 = runtime.NumCPU()).
	Workers int
	// Progress, when non-nil, receives one line per finished interval.
	// Intervals run concurrently, so lines may arrive out of interval
	// order.
	Progress io.Writer
	// Cache, when non-nil, memoizes per-set offline analyses across the
	// sweep (shared by all workers); nil means a sweep-private cache.
	Cache *analysis.Cache
	// ScratchPool, when non-nil, recycles engine working state between
	// runs; nil means a sweep-private pool.
	ScratchPool *sim.ScratchPool
}

// DefaultConfig returns the paper's Figure 6 setup for a scenario.
func DefaultConfig(sc fault.Scenario) Config {
	return Config{
		Seed:            2020,
		Intervals:       workload.Intervals(0.1, 1.0, 0.1),
		SetsPerInterval: 20,
		MaxCandidates:   5000,
		Scenario:        sc,
		Approaches:      []core.Approach{core.ST, core.DP, core.Selective},
		Workload:        workload.DefaultConfig(),
		MinHorizon:      500 * timeu.Millisecond,
		HorizonCap:      2 * timeu.Second,
	}
}

// SetResult is one task set's outcome across approaches.
type SetResult struct {
	Set     *task.Set
	Horizon timeu.Time
	// Active[a] is the absolute active energy of approach a; Norm[a] is
	// Active[a]/Active[ST].
	Active map[core.Approach]float64
	Norm   map[core.Approach]float64
	// Violated[a] reports an (m,k) violation under approach a.
	Violated map[core.Approach]bool
	// Counters[a] is the run's observability counters under approach a
	// (the per-mechanism accounting behind the energy number: backup
	// cancellations, demotions, DPD sleeps, ...).
	Counters map[core.Approach]metrics.Counters
}

// Row aggregates one utilization interval.
type Row struct {
	Interval   workload.Interval
	Candidates int
	Sets       []SetResult
	// NormMean[a] is the interval's mean normalized energy; NormCI the
	// 95% half-width.
	NormMean map[core.Approach]float64
	NormCI   map[core.Approach]float64
	// Violations[a] counts sets with (m,k) violations.
	Violations map[core.Approach]int
	// Counters[a] sums the interval's run counters per approach, and
	// HorizonTotal the corresponding simulated horizons, so invariants
	// like busy+idle+sleep+dead = horizon × processors stay checkable on
	// the aggregate.
	Counters     map[core.Approach]metrics.Counters
	HorizonTotal timeu.Time
}

// Report is a full sweep.
type Report struct {
	Scenario   fault.Scenario
	Approaches []core.Approach
	Rows       []Row
}

// Run executes the sweep without cancellation support; see RunContext.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the sweep, sharding whole intervals across the
// worker budget: each interval generates its task sets and fans the
// per-set simulations out over a semaphore shared by every interval, so
// the sweep keeps all workers busy across interval boundaries. Per-set
// offline analyses are memoized in cfg.Cache and derived once per set,
// not once per approach.
//
// On cancellation RunContext returns the partial Report — the intervals
// that completed, in interval order — together with a non-nil error
// wrapping ctx.Err() (test with errors.Is). Set generation looks at ctx
// every generateChunk candidates, so an interval that is still rejecting
// candidates stops promptly too. All workers are drained before it
// returns; no goroutines leak.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.SetsPerInterval <= 0 {
		cfg.SetsPerInterval = 20
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 5000
	}
	if len(cfg.Intervals) == 0 {
		cfg.Intervals = workload.Intervals(0.1, 1.0, 0.1)
	}
	if cfg.Workload == (workload.Config{}) {
		cfg.Workload = workload.DefaultConfig()
	}
	if cfg.Power == (sim.PowerModel{}) {
		cfg.Power = sim.DefaultPower()
	}
	if cfg.MinHorizon <= 0 {
		cfg.MinHorizon = 500 * timeu.Millisecond
	}
	if cfg.HorizonCap <= 0 {
		cfg.HorizonCap = 2 * timeu.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Cache == nil {
		cfg.Cache = analysis.NewCache(0)
	}
	if cfg.ScratchPool == nil {
		cfg.ScratchPool = sim.NewScratchPool()
	}
	approaches := ensureST(cfg.Approaches)

	// A fixed roster of scratches — one per worker slot — lives for the
	// whole sweep: the arenas, pair-table rows and wheel buckets warm up
	// during the first runs and then amortize across every interval,
	// immune to sync.Pool's GC-cycle clearing. The roster is borrowed from
	// (and returned to) cfg.ScratchPool so a caller-held pool still reuses
	// the same scratches across sweeps (the mkservd server does).
	scratches := make(chan *sim.Scratch, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		scratches <- cfg.ScratchPool.Get()
	}
	defer func() {
		close(scratches)
		for scr := range scratches {
			cfg.ScratchPool.Put(scr)
		}
	}()

	rows := make([]Row, len(cfg.Intervals))
	done := make([]bool, len(cfg.Intervals))
	// sem gates both set generation and simulation work across all
	// intervals. Interval goroutines release it before waiting on their
	// set workers, so the two uses cannot deadlock.
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards firstErr, done, Progress
	var firstErr error
	for ivIdx, iv := range cfg.Intervals {
		wg.Add(1)
		go func(ivIdx int, iv workload.Interval) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			sem <- struct{}{}
			gen := workload.NewGenerator(cfg.Workload, stats.DeriveSeed(cfg.Seed, uint64(cfg.IntervalOffset+ivIdx)))
			batch, err := generate(ctx, gen, iv, cfg.SetsPerInterval, cfg.MaxCandidates)
			<-sem
			if err != nil {
				return // canceled: a cut-short interval never becomes a row
			}
			row := Row{
				Interval:   iv,
				Candidates: batch.Candidates,
				NormMean:   map[core.Approach]float64{},
				NormCI:     map[core.Approach]float64{},
				Violations: map[core.Approach]int{},
				Counters:   map[core.Approach]metrics.Counters{},
			}
			results := make([]SetResult, len(batch.Sets))
			var iwg sync.WaitGroup
			failed := false
			for si, s := range batch.Sets {
				iwg.Add(1)
				go func(si int, s *task.Set) {
					defer iwg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					if ctx.Err() != nil {
						return
					}
					faultSeed := stats.DeriveSeed(cfg.Seed, uint64(1_000_000+(cfg.IntervalOffset+ivIdx)*10_000+si))
					sr, err := runSet(ctx, s, approaches, cfg, faultSeed, scratches)
					if err != nil {
						mu.Lock()
						if firstErr == nil && !isCtxErr(ctx, err) {
							firstErr = fmt.Errorf("interval %v set %d: %w", iv, si, err)
						}
						mu.Unlock()
						return
					}
					results[si] = sr
				}(si, s)
			}
			iwg.Wait()
			if ctx.Err() != nil {
				return
			}
			mu.Lock()
			failed = firstErr != nil
			mu.Unlock()
			if failed {
				return
			}
			row.Sets = results
			aggregate(&row, approaches)
			rows[ivIdx] = row
			mu.Lock()
			done[ivIdx] = true
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "interval %v: %d sets (%d candidates) %s\n",
					iv, len(row.Sets), row.Candidates, row.summary(approaches))
			}
			mu.Unlock()
		}(ivIdx, iv)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	rep := &Report{Scenario: cfg.Scenario, Approaches: approaches}
	if err := ctx.Err(); err != nil {
		// Partial report: the completed intervals, in interval order.
		for ivIdx := range rows {
			if done[ivIdx] {
				rep.Rows = append(rep.Rows, rows[ivIdx])
			}
		}
		return rep, fmt.Errorf("experiment: sweep interrupted (%d/%d intervals complete): %w",
			len(rep.Rows), len(cfg.Intervals), err)
	}
	rep.Rows = rows
	return rep, nil
}

// generateChunk bounds the candidates an interval draws between two
// looks at the context: GenerateInterval itself never checks one, so a
// canceled sweep stops within one chunk and frees its worker slot.
const generateChunk = 256

// generate draws an interval's sets as one GenerateInterval call would,
// in calls of at most generateChunk candidates — which consume the
// generator's stream exactly as one call does — and returns ctx's error
// once ctx is done.
func generate(ctx context.Context, gen *workload.Generator, iv workload.Interval, want, maxCandidates int) (workload.IntervalResult, error) {
	res := workload.IntervalResult{Interval: iv}
	for len(res.Sets) < want && res.Candidates < maxCandidates {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		part := gen.GenerateInterval(iv, want-len(res.Sets), min(generateChunk, maxCandidates-res.Candidates))
		res.Sets = append(res.Sets, part.Sets...)
		res.Candidates += part.Candidates
	}
	return res, nil
}

// isCtxErr reports whether err is just the context's cancellation
// surfacing through a worker, as opposed to a real simulation failure.
func isCtxErr(ctx context.Context, err error) bool {
	cause := ctx.Err()
	return cause != nil && errors.Is(err, cause)
}

// RunSet simulates one task set under every approach with an identical
// fault realization and returns the per-approach energies.
func RunSet(s *task.Set, approaches []core.Approach, cfg Config, faultSeed uint64) (SetResult, error) {
	return runSet(context.Background(), s, approaches, cfg, faultSeed, nil)
}

// runSet borrows engine working state from scratches (the sweep's
// per-worker roster) when non-nil, else from cfg.ScratchPool (nil-safe: a
// nil pool mints a fresh Scratch).
func runSet(ctx context.Context, s *task.Set, approaches []core.Approach, cfg Config, faultSeed uint64, scratches chan *sim.Scratch) (SetResult, error) {
	horizon := simHorizon(s, cfg.MinHorizon, cfg.HorizonCap)
	sr := SetResult{
		Set:      s,
		Horizon:  horizon,
		Active:   map[core.Approach]float64{},
		Norm:     map[core.Approach]float64{},
		Violated: map[core.Approach]bool{},
		Counters: map[core.Approach]metrics.Counters{},
	}
	opts := cfg.CoreOpts
	if opts.Offline == nil && cfg.Cache != nil {
		// One offline analysis per set, shared by every approach below
		// (and by any other run of a fingerprint-identical set).
		opts.Offline = cfg.Cache.Get(s, analysis.Options{
			Pattern:        opts.Pattern,
			HyperperiodCap: opts.HyperperiodCap,
		})
	}
	var scr *sim.Scratch
	if scratches != nil {
		scr = <-scratches
		defer func() { scratches <- scr }()
	} else {
		scr = cfg.ScratchPool.Get()
		defer cfg.ScratchPool.Put(scr)
	}
	for _, a := range approaches {
		// Each approach re-draws the same plan from the same seed, so the
		// permanent fault instant/processor are identical across
		// approaches (fair comparison); transient draws consume the
		// stream per executed job.
		plan := fault.NewPlan(cfg.Scenario, horizon, stats.NewRand(faultSeed))
		policy, err := core.New(a, opts)
		if err != nil {
			return sr, err
		}
		eng, err := sim.New(s, policy, sim.Config{
			Power:   cfg.Power,
			Horizon: horizon,
			Faults:  plan,
			Scratch: scr,
		})
		if err != nil {
			return sr, err
		}
		res, err := eng.RunContext(ctx)
		if err != nil {
			return sr, err
		}
		sr.Active[a] = res.ActiveEnergy()
		sr.Violated[a] = !res.MKSatisfied()
		sr.Counters[a] = res.Counters
	}
	ref := sr.Active[core.ST]
	for _, a := range approaches {
		if ref > 0 {
			sr.Norm[a] = sr.Active[a] / ref
		} else {
			sr.Norm[a] = 1
		}
	}
	return sr, nil
}

// simHorizon extends the (m,k)-hyperperiod to at least minH, capping at
// capH: whole hyperperiods keep the static patterns periodic, the floor
// keeps short-hyperperiod sets statistically meaningful, and the cap
// keeps astronomically long hyperperiods tractable.
func simHorizon(s *task.Set, minH, capH timeu.Time) timeu.Time {
	h := s.MKHyperperiod(capH)
	if h >= capH {
		return capH
	}
	n := timeu.CeilDiv(minH, h)
	if n < 1 {
		n = 1
	}
	total := n * h
	if total > capH {
		total = capH
	}
	return total
}

func aggregate(row *Row, approaches []core.Approach) {
	for _, a := range approaches {
		var sample stats.Sample
		var sum metrics.Counters
		for _, sr := range row.Sets {
			sample.Add(sr.Norm[a])
			if sr.Violated[a] {
				row.Violations[a]++
			}
			sum = sum.Add(sr.Counters[a])
		}
		row.NormMean[a] = sample.Mean()
		row.NormCI[a] = sample.CI95()
		row.Counters[a] = sum
	}
	for _, sr := range row.Sets {
		row.HorizonTotal += sr.Horizon
	}
}

func (row Row) summary(approaches []core.Approach) string {
	parts := make([]string, 0, len(approaches))
	for _, a := range approaches {
		parts = append(parts, fmt.Sprintf("%s=%.3f", a, row.NormMean[a]))
	}
	return strings.Join(parts, " ")
}

func ensureST(as []core.Approach) []core.Approach {
	for _, a := range as {
		if a == core.ST {
			return as
		}
	}
	return append([]core.Approach{core.ST}, as...)
}

// MaxGain returns the largest interval-mean energy reduction of approach
// a over approach b (1 − mean_a/mean_b) and the interval where it occurs
// — the paper's "maximal energy reduction by MKSS_selective over MKSS_DP"
// headline.
func (r *Report) MaxGain(a, b core.Approach) (float64, workload.Interval) {
	best := 0.0
	var at workload.Interval
	for _, row := range r.Rows {
		if len(row.Sets) == 0 || timeu.ApproxZero(row.NormMean[b]) {
			continue
		}
		g := 1 - row.NormMean[a]/row.NormMean[b]
		if g > best {
			best = g
			at = row.Interval
		}
	}
	return best, at
}

// Table renders the report as a fixed-width ASCII table.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure-6 sweep — scenario: %s\n", r.Scenario)
	fmt.Fprintf(&b, "%-12s %5s %10s", "(m,k)-util", "sets", "candidates")
	for _, a := range r.Approaches {
		fmt.Fprintf(&b, " %16s", a)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %5d %10d", row.Interval, len(row.Sets), row.Candidates)
		for _, a := range r.Approaches {
			if len(row.Sets) == 0 {
				fmt.Fprintf(&b, " %16s", "-")
				continue
			}
			fmt.Fprintf(&b, "    %.3f ±%.3f", row.NormMean[a], row.NormCI[a])
		}
		b.WriteString("\n")
	}
	if gain, at := r.MaxGain(core.Selective, core.DP); gain > 0 {
		fmt.Fprintf(&b, "max energy reduction of %s over %s: %.1f%% (at %v)\n",
			core.Selective, core.DP, 100*gain, at)
	}
	return b.String()
}

// CSV renders the per-interval means as comma-separated series (one row
// per interval; columns: util_mid, sets, then one normalized-energy
// column per approach), for plotting.
func (r *Report) CSV() string {
	var b strings.Builder
	cols := []string{"util_mid", "sets"}
	for _, a := range r.Approaches {
		cols = append(cols, strings.ReplaceAll(strings.ToLower(a.String()), "-", "_"))
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%.2f,%d", row.Interval.Mid(), len(row.Sets))
		for _, a := range r.Approaches {
			fmt.Fprintf(&b, ",%.4f", row.NormMean[a])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// jsonReport mirrors Report with plain-JSON-friendly fields.
type jsonReport struct {
	Scenario   string    `json:"scenario"`
	Approaches []string  `json:"approaches"`
	Rows       []jsonRow `json:"rows"`
}

type jsonRow struct {
	UtilLo     float64            `json:"util_lo"`
	UtilHi     float64            `json:"util_hi"`
	Sets       int                `json:"sets"`
	Candidates int                `json:"candidates"`
	NormMean   map[string]float64 `json:"norm_mean"`
	NormCI95   map[string]float64 `json:"norm_ci95"`
	Violations map[string]int     `json:"violations"`
}

// JSON renders the per-interval aggregates as a machine-readable
// document (for external plotting/tooling).
func (r *Report) JSON() ([]byte, error) {
	out := jsonReport{Scenario: r.Scenario.String()}
	for _, a := range r.Approaches {
		out.Approaches = append(out.Approaches, a.String())
	}
	for _, row := range r.Rows {
		jr := jsonRow{
			UtilLo:     row.Interval.Lo,
			UtilHi:     row.Interval.Hi,
			Sets:       len(row.Sets),
			Candidates: row.Candidates,
			NormMean:   map[string]float64{},
			NormCI95:   map[string]float64{},
			Violations: map[string]int{},
		}
		for _, a := range r.Approaches {
			jr.NormMean[a.String()] = row.NormMean[a]
			jr.NormCI95[a.String()] = row.NormCI[a]
			jr.Violations[a.String()] = row.Violations[a]
		}
		out.Rows = append(out.Rows, jr)
	}
	return json.MarshalIndent(out, "", "  ")
}
