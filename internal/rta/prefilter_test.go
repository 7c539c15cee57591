package rta

import (
	"math"
	"testing"

	"repro/internal/pattern"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
)

// drawSectionV draws one candidate the way §V's generator does (5–10
// tasks, whole-millisecond periods in [5,50] ms, k in [2,20], 0 < m < k,
// WCETs from a UUniFast split of u, floored at 50 µs) and reports false
// when some Ci exceeds its period. Package rta cannot import the
// generator in internal/workload, which imports rta.
func drawSectionV(rng *stats.Rand, u float64) (*task.Set, bool) {
	n := 5 + rng.Intn(6)
	us := make([]float64, n)
	sum := u
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		us[i] = sum - next
		sum = next
	}
	us[n-1] = sum
	tasks := make([]task.Task, n)
	for i := range tasks {
		period := timeu.Time(5+rng.Int64n(46)) * timeu.Millisecond
		k := 2 + rng.Intn(19)
		m := 1 + rng.Intn(k-1)
		wcet := max(timeu.Time(math.Round(us[i]*float64(k)*float64(period)/float64(m))), 50*timeu.Microsecond)
		if wcet > period {
			return nil, false
		}
		tasks[i] = task.Task{Period: period, Deadline: period, WCET: wcet, M: m, K: k}
	}
	return task.NewSet(tasks...), true
}

// TestFirstJobsFitImpliesWalkReject pins the prefilter's soundness: a
// set firstJobsFit rejects must also be rejected by the bare walk, so
// SchedulableRPattern answers exactly what the walk alone would. The
// corpus is §V candidates from all nine Fig-6 intervals under the R- and
// the E-pattern; a quarter of the trials give random tasks non-zero
// offsets, which cut the first-job sum short. Trial t draws from
// stats.NewRand(prefilterSeed+t), so a failure names the seed that
// replays it.
func TestFirstJobsFitImpliesWalkReject(t *testing.T) {
	const (
		prefilterSeed = 0x5f1e0000
		trials        = 2700
		cap           = 10 * timeu.Second
	)
	var prefilterRejects, walkOnlyRejects, accepted, offsets int
	for trial := 0; trial < trials; trial++ {
		seed := uint64(prefilterSeed + trial)
		rng := stats.NewRand(seed)
		lo := 0.1 * float64(1+trial%9)
		s, ok := drawSectionV(rng, lo+0.1*rng.Float64())
		if !ok {
			continue
		}
		kind := pattern.RPattern
		if rng.Intn(2) == 1 {
			kind = pattern.EPattern
		}
		if rng.Intn(4) == 0 {
			offsets++
			for i := range s.Tasks {
				if rng.Intn(3) == 0 {
					s.Tasks[i].Offset = timeu.Time(rng.Int64n(int64(s.Tasks[i].Period)))
				}
			}
		}
		fits, walk := firstJobsFit(s), walkFilter(s, kind, cap)
		switch {
		case !fits && walk:
			t.Fatalf("seed %#x (trial %d), %v: first-job test rejects a set the walk accepts:\n%v",
				seed, trial, kind, s)
		case !fits:
			prefilterRejects++
		case !walk:
			walkOnlyRejects++
		default:
			accepted++
		}
		if got := SchedulableRPattern(s, kind, cap); got != walk {
			t.Fatalf("seed %#x (trial %d), %v: SchedulableRPattern %v, walk %v:\n%v",
				seed, trial, kind, got, walk, s)
		}
	}
	t.Logf("%d prefilter rejects, %d walk-only rejects, %d accepted, %d with offsets",
		prefilterRejects, walkOnlyRejects, accepted, offsets)
	// Guard against a corpus that stopped exercising a branch.
	for name, n := range map[string]int{
		"prefilter rejects": prefilterRejects, "walk-only rejects": walkOnlyRejects,
	} {
		if n < 30 {
			t.Errorf("only %d %s; the corpus no longer covers the branch", n, name)
		}
	}
}
