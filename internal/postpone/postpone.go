// Package postpone implements the paper's offline backup-release
// postponement analysis (Definitions 2–5, Equations 3–5).
//
// In a standby-sparing system the spare processor should start backup
// jobs as late as safely possible so that, when the main copy succeeds,
// the backup is cancelled before consuming energy. The dual-priority
// baseline postpones each backup by the promotion interval Yi = Di − Ri
// (Eq. 2). The paper's analysis instead computes a per-task *release
// postponement interval* θi that exploits the sparse mandatory pattern:
//
//	r̃i = ri + θi                                         (Eq. 3)
//	θij = max{ t̄ − (cij + Σ ckl) − rij : t̄ ∈ IP(J'ij) }   (Eq. 4)
//	θi  = min{ θij : j ≤ LCM_{q≤i}(kq·Pq)/Pi }            (Eq. 5)
//
// where the inspecting points IP(J'ij) are the job's own deadline dij and
// every postponed release r̃kl of a higher-priority backup job falling in
// (rij, dij) (Definition 3), and the interference sum counts every
// higher-priority backup job with dkl > rij and r̃kl < t̄. Levels are
// processed in descending priority order, revising release times level by
// level, exactly as prescribed after Definition 5.
//
// The worked example of Figure 5 — τ1=(10,10,3,2,3), τ2=(15,15,8,1,2)
// giving θ1 = 7 and θ2 = 4 — is reproduced in the package tests.
package postpone

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Analysis is the result of the offline postponement computation.
type Analysis struct {
	// Theta[i] is the release postponement interval θi of task i's
	// backups (already floored at the promotion interval Y[i]).
	Theta []timeu.Time
	// RawTheta[i] is θi as computed by Eqs. (4)–(5) before the Yi floor;
	// kept for diagnostics and the ablation benches.
	RawTheta []timeu.Time
	// Y[i] is the dual-priority promotion interval Yi = Di − Ri (Eq. 2).
	Y []timeu.Time
	// Exact[i] reports whether θi came from the full hyperperiod
	// analysis (true) or fell back to Yi because the level-i hyperperiod
	// saturated the cap (false).
	Exact []bool
}

// Options tunes the analysis.
type Options struct {
	// Pattern selects the static mandatory/optional partition; the paper
	// uses the R-pattern.
	Pattern pattern.Kind
	// HyperperiodCap bounds the per-level analysis horizon. Levels whose
	// LCM_{q≤i}(kq·Pq) exceeds the cap fall back to θi = Yi (safe by
	// dual-priority theory). Zero means DefaultHyperperiodCap.
	HyperperiodCap timeu.Time
	// Promotion, when non-nil and of length s.N(), supplies precomputed
	// promotion intervals Yi (as from rta.PromotionTimesSafe) so the
	// analysis skips re-running the RTA fixed point. Ignored otherwise.
	Promotion []timeu.Time
}

// DefaultHyperperiodCap bounds the exact analysis to hyperperiods of at
// most 10 seconds (2,000 jobs of the shortest paper-scale period); beyond
// that the Yi fallback is used.
const DefaultHyperperiodCap = 10 * timeu.Second

// Compute runs the postponement analysis on set s. The set must be fully
// FP-schedulable (rta.PromotionTimes must succeed) so that the Yi floor
// and fallback exist; the paper's workload generator guarantees this.
func Compute(s *task.Set, opts Options) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("postpone: %w", err)
	}
	cap := opts.HyperperiodCap
	if cap <= 0 {
		cap = DefaultHyperperiodCap
	}
	// Safe promotion intervals: tasks whose full-interference RTA
	// diverges get Y = 0, so the floor below never hurts correctness on
	// sets that are only R-pattern-schedulable.
	n := s.N()
	ys := opts.Promotion
	if len(ys) != n {
		ys = rta.PromotionTimesSafe(s)
	}
	an := &Analysis{
		Theta:    make([]timeu.Time, n),
		RawTheta: make([]timeu.Time, n),
		Y:        ys,
		Exact:    make([]bool, n),
	}
	cur := make([]hpCursor, 0, n) // thetaJob's merge buffer, shared by every job
	for i := 0; i < n; i++ {
		t := s.Tasks[i]
		hyper := s.MKHyperperiodLevel(i, cap)
		if hyper >= cap {
			// Hyperperiod too large for exact analysis: fall back to the
			// dual-priority promotion interval, which is always safe.
			an.RawTheta[i] = ys[i]
			an.Theta[i] = ys[i]
			an.Exact[i] = false
			continue
		}
		theta := timeu.Infinity
		found := false
		for j := 1; t.Release(j) < hyper; j++ {
			if !pattern.Mandatory(opts.Pattern, j, t.M, t.K) {
				continue
			}
			found = true
			th := thetaJob(s, an, opts.Pattern, i, j, cur)
			if th < theta {
				theta = th
			}
		}
		if !found {
			theta = ys[i]
		}
		an.RawTheta[i] = theta
		an.Exact[i] = true
		// The paper's closing remark (§IV): a θi below the promotion
		// interval can always be raised to it safely, and Eq. (4) can go
		// negative under pessimistic interference — floor at Yi.
		if theta < ys[i] {
			theta = ys[i]
		}
		an.Theta[i] = theta
	}
	return an, nil
}

// hpCursor walks one higher-priority task's backup jobs that are
// relevant to an Eq. (4) window [r, d): mandatory, with deadline after r
// (dkl > r) and postponed release before d (r̃kl < d). All of a task's
// backups share θk, so the cursor meets them in r̃ order.
type hpCursor struct {
	t      *task.Task
	theta  timeu.Time // θk
	l      int        // index of the job under the cursor
	posted timeu.Time // its r̃kl
}

// seek moves c to the first relevant job at or after c.l and reports
// whether there is one. A job posted at or after d can neither interfere
// (that needs r̃kl < t̄ ≤ d) nor be an inspecting point itself, and later
// jobs only more so, so the walk ends there.
func (c *hpCursor) seek(kind pattern.Kind, r, d timeu.Time) bool {
	for ; ; c.l++ {
		rel := c.t.Release(c.l)
		if rel+c.theta >= d {
			return false
		}
		if rel+c.t.Deadline > r && pattern.Mandatory(kind, c.l, c.t.M, c.t.K) {
			c.posted = rel + c.theta
			return true
		}
	}
}

// thetaJob evaluates Eq. (4) for backup job J'_ij.
//
// The inspecting points (Definition 3) are dij and every r̃kl in
// (rij, dij); the interference at a point t̄ is the WCET of every
// higher-priority backup job with dkl > rij and r̃kl < t̄. One hpCursor
// per higher-priority task yields exactly the jobs with dkl > rij and
// r̃kl < dij, each task's in r̃ order, so merging the cursors visits every
// job once in r̃ order and the interference at each point is a running
// sum: O(h·i) time for h such jobs, and no memory beyond the i cursors in
// cur, which the caller owns and thetaJob overwrites.
func thetaJob(s *task.Set, an *Analysis, kind pattern.Kind, i, j int, cur []hpCursor) timeu.Time {
	t := s.Tasks[i]
	r := t.Release(j)
	d := t.AbsDeadline(j)
	cur = cur[:0]
	for k := 0; k < i; k++ {
		tk := &s.Tasks[k]
		// First candidate: release > r − Dk  =>  l > (r − Dk − offset)/Pk.
		c := hpCursor{t: tk, theta: an.Theta[k], l: max(tk.JobIndexAt(r-tk.Deadline)+1, 1)}
		if c.seek(kind, r, d) {
			cur = append(cur, c)
		}
	}
	best := -timeu.Infinity // Eq. (4) may be negative
	var inter timeu.Time
	for len(cur) > 0 {
		// inter sums the jobs posted strictly before tb: those posted at
		// tb itself do not interfere at that point.
		tb := cur[0].posted
		for _, c := range cur[1:] {
			tb = min(tb, c.posted)
		}
		if tb > r {
			best = max(best, tb-(t.WCET+inter)-r)
		}
		// Consume the jobs posted at tb, at most one per task.
		for x := 0; x < len(cur); {
			c := &cur[x]
			if c.posted == tb {
				inter += c.t.WCET
				c.l++
				if !c.seek(kind, r, d) {
					cur[x] = cur[len(cur)-1]
					cur = cur[:len(cur)-1]
					continue
				}
			}
			x++
		}
	}
	// The deadline point: every relevant job is posted before dij.
	return max(best, d-(t.WCET+inter)-r)
}
