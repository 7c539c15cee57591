// Package dbp implements DBP (distance-based priority), the canonical
// dynamic (m,k) scheduling policy of Hamdaoui & Ramanathan, adapted to
// the paper's two-processor standby-sparing system. Goossens
// (arXiv:0805.0200) gives the matching exact schedulability test, Exact
// (exact.go), which reads its verdict off one fault-free engine run of
// this policy. The tests check Exact against a hand-written walk of the
// same schedule (walk_test.go) that shares no code with the engine.
package dbp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
)

func init() {
	policy.Register(policy.DBP, func(opts policy.Options) sim.Policy {
		return &dbpPolicy{opts: opts}
	})
}

// dbpPolicy schedules every job by its distance to failure: the number of
// consecutive future deadline misses the task can absorb before its
// (m,k) constraint breaks, computed from the sliding outcome window at
// release (distance = FlexibilityDegree + 1, Definition 1). Smaller
// distance means closer to failure means higher priority.
//
// Jobs at distance 1 are the promoted tier — one more miss is a
// violation — and run as mandatory standby-sparing pairs: main on the
// primary, backup on the spare postponed by θi (Eq. 3), exactly like the
// selective scheme's FD = 0 jobs. Jobs at distance ≥ 2 run as single
// optional copies on the primary, ordered among themselves by distance;
// unlike the selective scheme, DBP admits them all (DBP never skips — it
// de-prioritizes), and an optional copy that can no longer finish by its
// deadline is simply never dispatched, settling as a miss at the
// deadline.
//
// Classic DBP re-evaluates priorities whenever a window slides. Under
// this repository's constrained-deadline task model (D ≤ P) each task has
// at most one unsettled job at any release instant — the previous job
// settles at its deadline at the latest, and the engine processes
// completions and deadlines before releases at the same instant — so a
// job's distance cannot change between its release and its settlement.
// Recording the distance once at release is therefore the exact dynamic
// promotion rule, not an approximation; TestDistanceBookkeeping pins this
// against a brute-force window recount.
type dbpPolicy struct {
	opts policy.Options
	off  *analysis.Products
	an   *postpone.Analysis
	hist []*pattern.History

	// onClassify, when non-nil, observes every release classification
	// (task, 1-based job index, distance). Tests hook it to audit the
	// distance bookkeeping; it is never set in production.
	onClassify func(taskID, index, dist int)
}

func (p *dbpPolicy) Name() string { return policy.DBP.String() }

func (p *dbpPolicy) Init(e *sim.Engine) error {
	set := e.Set()
	p.off = policy.Offline(set, p.opts)
	an, err := p.off.Postponement()
	if err != nil {
		return fmt.Errorf("dbp: %w", err)
	}
	p.an = an
	p.hist = policy.Histories(set)
	return nil
}

func (p *dbpPolicy) Release(e *sim.Engine, t *task.Task, index int) {
	dist := p.hist[t.ID].FlexibilityDegree() + 1
	if p.onClassify != nil {
		p.onClassify(t.ID, index, dist)
	}
	if dist == 1 {
		e.Counters().MandatoryJobs++
		main := e.NewJob(t, index, task.Mandatory)
		main.FD = dist
		if e.Degraded() {
			e.Admit(main, e.Survivor())
			return
		}
		e.Admit(main, sim.Primary)
		backup := e.NewBackup(t, index, p.an.Theta[t.ID])
		backup.FD = dist
		e.Admit(backup, sim.Spare)
		return
	}
	if p.off.Mandatory(t.ID, index) {
		e.Counters().Demotions++
	}
	e.Counters().OptionalSelected++
	j := e.NewJob(t, index, task.Optional)
	j.FD = dist
	e.Admit(j, sim.Primary)
}

func (p *dbpPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	// Distance first (the DBP rule); the promoted distance-1 tier is
	// exactly the mandatory class, so class never disagrees with FD here
	// — the explicit check only breaks FD ties after a permanent fault
	// migrates mixed copies onto the survivor.
	if a.FD != b.FD {
		return a.FD < b.FD
	}
	if a.Class != b.Class {
		return a.Class == task.Mandatory
	}
	return policy.FPLess(a, b)
}

func (p *dbpPolicy) Runnable(now timeu.Time, j *task.Job) bool {
	return j.Class == task.Mandatory || !j.Expired(now)
}

func (p *dbpPolicy) OnSettled(e *sim.Engine, taskID, index int, effective bool) {
	p.hist[taskID].Record(effective)
}

// Fork copies the policy with its outcome windows; the postponement
// analysis is shared.
func (p *dbpPolicy) Fork() sim.Policy {
	c := *p
	c.hist = pattern.CloneAll(p.hist)
	return &c
}
