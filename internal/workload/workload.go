// Package workload generates the random periodic task sets of the
// paper's evaluation (§V): five to ten tasks per set, periods uniform in
// [5,50] ms, ki uniform in [2,20] with 0 < mi < ki, WCETs drawn so the
// total (m,k)-utilization Σ mi·Ci/(ki·Pi) hits a target drawn from the
// current 0.1-wide utilization interval, and a schedulability filter that
// keeps only sets satisfying the premise of Theorem 1 (mandatory jobs
// schedulable under the static R-pattern). Each interval collects at
// least 20 schedulable sets or gives up after 5000 candidates, exactly as
// in the paper.
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Config parameterizes generation; DefaultConfig reproduces §V.
type Config struct {
	// NTasksMin..NTasksMax bound the set size (paper: 5..10).
	NTasksMin, NTasksMax int
	// PeriodMin..PeriodMax bound the periods (paper: 5..50 ms), drawn as
	// whole milliseconds.
	PeriodMin, PeriodMax timeu.Time
	// KMin..KMax bound ki (paper: 2..20); mi is uniform in [1, ki-1].
	KMin, KMax int
	// MinWCET floors the execution times so numerical dust cannot create
	// degenerate jobs (50 µs by default; the paper does not specify).
	MinWCET timeu.Time
	// Pattern is the static partition used by the schedulability filter.
	Pattern pattern.Kind
	// SchedCap bounds the R-pattern schedulability simulation horizon.
	SchedCap timeu.Time
	// RequireFullRTA additionally demands full FP schedulability (every
	// job, not just mandatory ones) — OFF by default; the paper's premise
	// is R-pattern schedulability.
	RequireFullRTA bool
	// HarmonicPeriods restricts periods to a divisor-friendly menu
	// ({5,10,20,25,40,50} ms) and k to {2,4,5,8,10}, keeping the
	// (m,k)-hyperperiods small enough that the θ analysis of Defs. 2–5
	// stays exact instead of falling back to Yi. Off by default (the
	// paper draws periods uniformly).
	HarmonicPeriods bool
}

// harmonicPeriodMenu and harmonicKMenu keep LCM(ki·Pi) within 1 s.
var (
	harmonicPeriodMenu = []timeu.Time{
		5 * timeu.Millisecond, 10 * timeu.Millisecond, 20 * timeu.Millisecond,
		25 * timeu.Millisecond, 40 * timeu.Millisecond, 50 * timeu.Millisecond,
	}
	harmonicKMenu = []int{2, 4, 5, 8, 10}
)

// DefaultConfig returns the paper's §V parameters.
func DefaultConfig() Config {
	return Config{
		NTasksMin: 5,
		NTasksMax: 10,
		PeriodMin: 5 * timeu.Millisecond,
		PeriodMax: 50 * timeu.Millisecond,
		KMin:      2,
		KMax:      20,
		MinWCET:   50 * timeu.Microsecond,
		Pattern:   pattern.RPattern,
		SchedCap:  10 * timeu.Second,
	}
}

// Generator draws task sets from its own deterministic stream.
type Generator struct {
	cfg Config
	rng *stats.Rand
	// us and cand are the draw's scratch: GenerateInterval draws, checks
	// and filters each candidate in place and copies out only the sets it
	// keeps.
	us   []float64
	cand task.Set
}

// NewGenerator builds a generator with the given config and seed.
func NewGenerator(cfg Config, seed uint64) *Generator {
	return &Generator{cfg: cfg, rng: stats.NewRand(seed)}
}

// uunifast splits total utilization across n tasks uniformly at random
// (Bini & Buttazzo's UUniFast), the standard unbiased splitter. The
// split lives in g.us until the next call.
//
//mklint:hotpath
func (g *Generator) uunifast(n int, total float64) []float64 {
	if cap(g.us) < n {
		g.us = make([]float64, n)
	}
	us := g.us[:n]
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(g.rng.Float64(), 1/float64(n-1-i))
		us[i] = sum - next
		sum = next
	}
	us[n-1] = sum
	return us
}

// infeasibleError reports a drawn task whose WCET exceeds its deadline.
// It formats only in Error: GenerateInterval discards such candidates
// without building one.
type infeasibleError struct {
	task           int // 1-based
	wcet, deadline timeu.Time
}

func (e *infeasibleError) Error() string {
	return fmt.Sprintf("workload: task %d infeasible (C=%v > D=%v)", e.task, e.wcet, e.deadline)
}

// Candidate draws one random task set with total (m,k)-utilization
// targetU (no schedulability filtering). It errors only when the target
// is infeasible for the drawn structure (some Ci would exceed its
// deadline even after clamping, or fall below MinWCET).
func (g *Generator) Candidate(targetU float64) (*task.Set, error) {
	if targetU <= 0 {
		return nil, errors.New("workload: non-positive utilization target")
	}
	if !g.draw(targetU) {
		last := len(g.cand.Tasks) - 1
		t := g.cand.Tasks[last]
		return nil, &infeasibleError{task: last + 1, wcet: t.WCET, deadline: t.Deadline}
	}
	s := task.NewSet(g.cand.Tasks...)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// draw draws one candidate with total (m,k)-utilization targetU > 0 into
// g.cand, overwriting the previous one. It stops at the first task whose
// WCET exceeds its deadline and reports false; that task is then the
// last in g.cand.
//
//mklint:hotpath
func (g *Generator) draw(targetU float64) bool {
	n := g.cfg.NTasksMin
	if g.cfg.NTasksMax > g.cfg.NTasksMin {
		n += g.rng.Intn(g.cfg.NTasksMax - g.cfg.NTasksMin + 1)
	}
	us := g.uunifast(n, targetU)
	g.cand.Tasks = g.cand.Tasks[:0]
	for i := 0; i < n; i++ {
		var period timeu.Time
		var k int
		if g.cfg.HarmonicPeriods {
			period = harmonicPeriodMenu[g.rng.Intn(len(harmonicPeriodMenu))]
			k = harmonicKMenu[g.rng.Intn(len(harmonicKMenu))]
		} else {
			periodMS := int64(g.cfg.PeriodMin/timeu.Millisecond) +
				g.rng.Int64n(int64((g.cfg.PeriodMax-g.cfg.PeriodMin)/timeu.Millisecond)+1)
			period = timeu.Time(periodMS) * timeu.Millisecond
			k = g.cfg.KMin + g.rng.Intn(g.cfg.KMax-g.cfg.KMin+1)
		}
		m := 1 + g.rng.Intn(k-1)
		// Ci = ui · ki · Pi / mi  (inverting the (m,k)-utilization).
		wcet := timeu.Time(math.Round(us[i] * float64(k) * float64(period) / float64(m)))
		if wcet < g.cfg.MinWCET {
			wcet = g.cfg.MinWCET
		}
		g.cand.Tasks = append(g.cand.Tasks, task.Task{
			ID:       i,
			Period:   period,
			Deadline: period,
			WCET:     wcet,
			M:        m,
			K:        k,
		})
		if wcet > period {
			return false
		}
	}
	return true
}

// Schedulable reports whether s passes the evaluation's filter.
func (g *Generator) Schedulable(s *task.Set) bool {
	if g.cfg.RequireFullRTA && !rta.SchedulableRTA(s) {
		return false
	}
	return rta.SchedulableRPattern(s, g.cfg.Pattern, g.cfg.SchedCap)
}

// Interval is one (m,k)-utilization bucket [Lo, Hi).
type Interval struct{ Lo, Hi float64 }

func (iv Interval) String() string { return fmt.Sprintf("[%.2f,%.2f)", iv.Lo, iv.Hi) }

// Mid returns the interval midpoint (Figure 6's x coordinate).
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

// ErrHiAboveOne rejects a sweep range that runs past 1, the end of
// Figure 6's (m,k)-utilization axis. Without the bound a request could
// ask Intervals for billions of buckets, or, from 2⁵¹ upward where
// x += 0.1 no longer moves x, for a loop that never ends.
var ErrHiAboveOne = errors.New("hi must not exceed 1, the end of the (m,k)-utilization axis")

// Intervals builds the sweep buckets: [lo, lo+step), ..., up to hi.
func Intervals(lo, hi, step float64) []Interval {
	var out []Interval
	for x := lo; x < hi-1e-9; x += step {
		out = append(out, Interval{Lo: x, Hi: math.Min(x+step, hi)})
	}
	return out
}

// IntervalResult reports one bucket's generation statistics.
type IntervalResult struct {
	Interval   Interval
	Sets       []*task.Set
	Candidates int // candidates drawn (including infeasible/unschedulable)
}

// GenerateInterval rejection-samples schedulable sets whose total
// (m,k)-utilization lies in iv, stopping at want sets or maxCandidates
// attempts (paper: 20 and 5000). Each candidate is drawn, checked and
// filtered in the generator's scratch; only a kept set is copied out.
// The stream is consumed exactly as a loop of Candidate, bucket check
// and Schedulable would consume it.
func (g *Generator) GenerateInterval(iv Interval, want, maxCandidates int) IntervalResult {
	res := IntervalResult{Interval: iv}
	for res.Candidates < maxCandidates && len(res.Sets) < want {
		res.Candidates++
		target := iv.Lo + g.rng.Float64()*(iv.Hi-iv.Lo)
		if target <= 0 || !g.draw(target) || g.cand.Validate() != nil {
			continue
		}
		// The WCET floor can push the realized utilization out of the
		// bucket; keep the buckets honest.
		if u := g.cand.MKUtilization(); u < iv.Lo || u >= iv.Hi {
			continue
		}
		if !g.Schedulable(&g.cand) {
			continue
		}
		res.Sets = append(res.Sets, task.NewSet(g.cand.Tasks...))
	}
	return res
}
