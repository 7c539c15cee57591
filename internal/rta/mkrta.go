package rta

import (
	"math"
	"math/bits"

	"repro/internal/task"
	"repro/internal/timeu"
)

// This file holds the exact Theorem-1 test for the paper's own setting:
// synchronous releases, the R-pattern of Eq. (1) and Dᵢ ≤ Pᵢ. It is a
// pattern-aware busy-period fixed point in the spirit of Quan & Hu's
// enhanced fixed-priority (m,k) analysis [13]. Job 1 of each task is its
// worst case (hypotheses/h7 has the proof sketch): Eq. (1) makes jobs
// 1..m of every k-window mandatory, so no L consecutive jobs of τj hold
// more mandatory jobs than the first L, and no window of length x holds
// more mandatory demand of τj than MandatoryDemand(τj, x). Every later
// job of τi therefore completes within job 1's response. The E-pattern
// lacks that prefix property and offsets break the synchronous bound, so
// those sets keep the hyperperiod walk.

// MandatoryDemand returns the cumulative WCET of task t's mandatory jobs
// released in [0, x) under the R-pattern: the pattern-aware
// request-bound function RBF_t(x). Of the ⌈x/P⌉ releases, every whole
// k-window holds m mandatory jobs (Eq. (1)) and the partial window
// min(rem, m). The product saturates at the largest Time instead of
// wrapping.
func MandatoryDemand(t task.Task, x timeu.Time) timeu.Time {
	if x <= t.Offset {
		return 0
	}
	jobs := timeu.CeilDiv(x-t.Offset, t.Period)
	k, m := timeu.Time(t.K), timeu.Time(t.M)
	return addJobs(0, jobs/k*m+min(jobs%k, m), t.WCET)
}

// addJobs returns sum + n·c for non-negative operands, saturated at the
// largest Time instead of wrapping.
//
//mklint:hotpath
func addJobs(sum, n, c timeu.Time) timeu.Time {
	hi, lo := bits.Mul64(uint64(n), uint64(c))
	if hi != 0 || lo > uint64(math.MaxInt64-sum) {
		return math.MaxInt64
	}
	return sum + timeu.Time(lo)
}

// criticalInstantFits is SchedulableRPattern's exact test for a
// synchronous R-pattern set that passed firstJobsFit: every task's first
// job completes by its deadline. It needs no hyperperiod, cap or
// allocation.
//
//mklint:hotpath
func criticalInstantFits(s *task.Set) bool {
	var prefix timeu.Time
	for i := range s.Tasks {
		prefix += s.Tasks[i].WCET // at most Dᵢ: firstJobsFit passed
		if _, ok := firstJobResponse(s, i, prefix); !ok {
			return false
		}
	}
	return true
}

// firstJobResponse solves R = Cᵢ + Σ_{j<i} MandatoryDemand(τj, R) for
// task i's first job, iterating up from start, a lower bound on the least
// fixed point that is at most Dᵢ. criticalInstantFits starts at
// C₁+…+Cᵢ: job 1 of every task is mandatory and released at 0, so τi's
// first job cannot finish sooner. ok is false once an iterate passes Dᵢ;
// each term is checked against the remaining budget before it is added,
// so no sum overflows.
//
//mklint:hotpath
func firstJobResponse(s *task.Set, i int, start timeu.Time) (r timeu.Time, ok bool) {
	t := &s.Tasks[i]
	for r = start; ; {
		next := t.WCET
		for j := 0; j < i; j++ {
			d := MandatoryDemand(s.Tasks[j], r)
			if d > t.Deadline-next {
				return 0, false
			}
			next += d
		}
		if next == r {
			return r, true
		}
		r = next
	}
}
