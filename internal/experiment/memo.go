package experiment

import (
	"math"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/workload"
)

// memoIntervals bounds the intervals an IntervalMemo keeps. A full-range
// Figure-6 sweep has 9, so a session running 6a, 6b and 6c draws each of
// them once.
const memoIntervals = 16

// IntervalMemo keeps the generated task sets of a session's recent sweep
// intervals, so sweeping one population under several fault scenarios
// (Figure 6a, 6b and 6c) draws each interval once. The draw is a pure
// function of its key, so a hit returns exactly what drawing again would.
//
// It keeps at most memoIntervals intervals and at most maxSets sets in
// total, evicting the oldest interval first; an interval with more than
// maxSets sets is not kept at all. Kept sets are shared read-only with
// every sweep that hits them. An IntervalMemo is safe for concurrent use.
type IntervalMemo struct {
	mu      sync.Mutex
	maxSets int
	kept    []memoEntry // oldest first
	sets    int         // total sets in kept
	hits    uint64
	misses  uint64
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
