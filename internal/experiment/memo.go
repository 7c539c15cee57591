package experiment

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// memoIntervals bounds the intervals an IntervalMemo keeps, and the units
// waiting in each of its two handoffs. A full-range Figure-6 sweep has 9,
// so a session running 6a, 6b and 6c draws each of them once and hands
// every unit on.
const memoIntervals = 16

// IntervalMemo keeps the generated task sets of a session's recent sweep
// intervals, so sweeping one population under several fault scenarios
// (Figure 6a, 6b and 6c) draws each interval once. The draw is a pure
// function of its key, so a hit returns exactly what drawing again would.
//
// It keeps at most memoIntervals intervals and at most maxSets sets in
// total, evicting the oldest interval first; an interval with more than
// maxSets sets is not kept at all. Kept sets are shared read-only with
// every sweep that hits them.
//
// It also hands runs on between the scenarios of one sweep unit (one
// interval of one sweep), keyed by unitKey, each whole unit once:
//
//   - the forks of a Figure-6(a) unit to the 6(b) unit, whose runs resume
//     from them (sim.Fork) instead of simulating the fault-free prefix
//     again;
//   - the run outcomes of a 6(b) unit to the 6(c) unit: a 6(c) run whose
//     fault plan provably fires no transient (fault.Plan.TransientFree)
//     is its 6(b) run, so it takes that outcome instead of running the
//     engine.
//
// At most memoIntervals units wait in each handoff, the oldest dropped
// first. A memo with a negative bound keeps no units either. An
// IntervalMemo is safe for concurrent use.
type IntervalMemo struct {
	mu      sync.Mutex
	maxSets int
	kept    []memoEntry // oldest first
	sets    int         // total sets in kept
	forks   []waiting[*sim.Fork]
	units   []waiting[runOutcome]
	hits    uint64
	misses  uint64
	taken   atomic.Uint64 // 6(c) runs that took their 6(b) outcome
	resumed atomic.Uint64 // 6(b) runs resumed from their 6(a) fork
}

// memoKey is everything generate reads: the defaulted workload config,
// the interval's derived seed, the exact bits of its bounds (never
// rounded: 0.1+0.1+0.1 and 0.3 draw different targets) and the stopping
// rule.
type memoKey struct {
	workload   workload.Config
	seed       uint64
	lo, hi     uint64
	want       int
	candidates int
}

type memoEntry struct {
	key memoKey
	res workload.IntervalResult
}

func intervalKey(w workload.Config, seed uint64, iv workload.Interval, want, candidates int) memoKey {
	return memoKey{
		workload:   w,
		seed:       seed,
		lo:         math.Float64bits(iv.Lo),
		hi:         math.Float64bits(iv.Hi),
		want:       want,
		candidates: candidates,
	}
}

// unitKey is everything a sweep unit's runs read besides its sets: the
// interval's draw, the seed and sweep-wide interval index the fault seeds
// derive from, the approaches in order, the policy options (never with
// Offline set: a caller's products are not part of the key), and the
// defaulted power model — its floats as exact bits — and horizon bounds.
type unitKey struct {
	interval               memoKey
	seed                   uint64
	index                  int
	approaches             string
	opts                   policy.Options
	power                  [4]uint64
	minHorizon, horizonCap timeu.Time
}

// runOutcome is what a sweep keeps of one run: the active energy, whether
// an (m,k) constraint was violated, and the run's counters.
type runOutcome struct {
	active   float64
	violated bool
	counters metrics.Counters
}

// waiting is one whole unit's handoff, oldest first in its list: for
// each run, set-major (runs[si*len(approaches)+ai]), what the next
// scenario of the unit takes.
type waiting[T any] struct {
	key  unitKey
	runs []T
}

// newUnitKey keys interval ivIdx of the defaulted sweep cfg, whose draw
// is keyed by interval.
func newUnitKey(cfg Config, interval memoKey, ivIdx int, approaches []policy.Approach) unitKey {
	p := cfg.Power
	return unitKey{
		interval:   interval,
		seed:       cfg.Seed,
		index:      cfg.IntervalOffset + ivIdx,
		approaches: approachesKey(approaches),
		opts:       cfg.CoreOpts,
		power: [4]uint64{math.Float64bits(p.Active), math.Float64bits(p.Idle),
			math.Float64bits(p.Sleep), uint64(p.BreakEven)},
		minHorizon: cfg.MinHorizon,
		horizonCap: cfg.HorizonCap,
	}
}

// approachesKey encodes approaches in order, one byte each, in a single
// allocation: every unit of every handoff scenario builds its key. Its
// length is the approach count, which keepForks divides by.
func approachesKey(approaches []policy.Approach) string {
	var buf [16]byte
	b := buf[:0]
	for _, a := range approaches {
		b = append(b, byte(a))
	}
	return string(b)
}

// NewIntervalMemo builds a memo keeping at most maxSets sets in total —
// a session passes its analysis-cache capacity, so the memo never pins
// more sets than the cache retains. Zero means
// analysis.DefaultCacheEntries; a negative bound keeps nothing, so every
// lookup misses.
func NewIntervalMemo(maxSets int) *IntervalMemo {
	if maxSets == 0 {
		maxSets = analysis.DefaultCacheEntries
	}
	return &IntervalMemo{maxSets: maxSets}
}

// Counts reports how many lookups found a kept interval (hits) and how
// many had to generate it (misses).
func (m *IntervalMemo) Counts() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// get returns the kept result for k; a nil memo always misses.
func (m *IntervalMemo) get(k memoKey) (workload.IntervalResult, bool) {
	if m == nil {
		return workload.IntervalResult{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.kept {
		if e.key == k {
			m.hits++
			return e.res, true
		}
	}
	m.misses++
	return workload.IntervalResult{}, false
}

// put keeps a whole interval's result under k. Two concurrent misses on
// one key draw identical results, so the first one kept stays.
func (m *IntervalMemo) put(k memoKey, res workload.IntervalResult) {
	if m == nil || len(res.Sets) > m.maxSets {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.kept {
		if e.key == k {
			return
		}
	}
	m.kept = append(m.kept, memoEntry{key: k, res: res})
	m.sets += len(res.Sets)
	for len(m.kept) > memoIntervals || m.sets > m.maxSets {
		m.sets -= len(m.kept[0].res.Sets)
		m.kept = slices.Delete(m.kept, 0, 1)
	}
}

// keepRuns keeps the outcomes of a whole Figure-6(b) unit — results in
// set order, each run in approaches order — under k until its 6(c) twin
// takes them.
func (m *IntervalMemo) keepRuns(k unitKey, results []SetResult, approaches []policy.Approach) {
	if m == nil || m.maxSets < 0 {
		return
	}
	runs := make([]runOutcome, 0, len(results)*len(approaches))
	for _, sr := range results {
		for _, a := range approaches {
			runs = append(runs, runOutcome{active: sr.Active[a], violated: sr.Violated[a], counters: sr.Counters[a]})
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keep(&m.units, k, runs)
}

// takeRuns removes and returns the outcomes kept under k, or nil. The
// handoff happens once: a second 6(c) sweep of the unit runs the engine,
// and the memo holds no outcome longer than its twin needs it.
func (m *IntervalMemo) takeRuns(k unitKey) []runOutcome {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return take(&m.units, k)
}

// forking reports whether a Figure-6(a) unit keyed k with the given
// number of sets should capture forks: the unit fits the memo's set
// bound and no forks are already waiting under k, so a repeated 6(a)
// sweep of a unit captures nothing.
func (m *IntervalMemo) forking(k unitKey, sets int) bool {
	if m == nil || sets > m.maxSets {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return !slices.ContainsFunc(m.forks, func(w waiting[*sim.Fork]) bool { return w.key == k })
}

// keepForks keeps the forks of a whole Figure-6(a) unit, set-major,
// under k until its 6(b) twin takes them. A fork holds a run's state
// (about 1.6 KB at the paper's settings), so like the kept intervals the
// waiting forks cover at most maxSets sets, the oldest unit dropped
// first: /v1/sweep puts no bound on a unit's sets.
func (m *IntervalMemo) keepForks(k unitKey, forks []*sim.Fork) {
	if m == nil || m.maxSets < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	keep(&m.forks, k, forks)
	for {
		sets := 0
		for _, w := range m.forks {
			sets += len(w.runs) / len(w.key.approaches)
		}
		if sets <= m.maxSets {
			return
		}
		m.forks = slices.Delete(m.forks, 0, 1)
	}
}

// takeForks removes and returns the forks kept under k, or nil: the
// 6(b) unit takes them once, and a second 6(b) sweep of the unit runs
// from 0.
func (m *IntervalMemo) takeForks(k unitKey) []*sim.Fork {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return take(&m.forks, k)
}

// keep appends runs under k to list, dropping the oldest unit beyond
// memoIntervals. Two sweeps of one unit keep identical runs, so one
// already waiting under k stays. The caller holds the memo's lock.
func keep[T any](list *[]waiting[T], k unitKey, runs []T) {
	if slices.ContainsFunc(*list, func(w waiting[T]) bool { return w.key == k }) {
		return
	}
	*list = append(*list, waiting[T]{key: k, runs: runs})
	if len(*list) > memoIntervals {
		*list = slices.Delete(*list, 0, 1)
	}
}

// take removes and returns the runs kept under k in list, or nil.
// slices.Delete clears the vacated slot, so the backing array pins
// nothing taken. The caller holds the memo's lock.
func take[T any](list *[]waiting[T], k unitKey) []T {
	i := slices.IndexFunc(*list, func(w waiting[T]) bool { return w.key == k })
	if i < 0 {
		return nil
	}
	runs := (*list)[i].runs
	*list = slices.Delete(*list, i, i+1)
	return runs
}

// Taken reports how many Figure-6(c) runs took their Figure-6(b) run's
// outcome instead of running the engine.
func (m *IntervalMemo) Taken() uint64 {
	return m.taken.Load()
}

// Resumed reports how many Figure-6(b) runs resumed from their
// Figure-6(a) run's fork instead of simulating from 0.
func (m *IntervalMemo) Resumed() uint64 {
	return m.resumed.Load()
}
