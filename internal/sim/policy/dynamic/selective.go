package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
)

// selectivePolicy is MKSS_selective, the paper's Algorithm 1.
//
// Each processor conceptually keeps a mandatory job queue (MJQ) and an
// optional job queue (OJQ); MJQ jobs always beat OJQ jobs, and each queue
// is served in fixed-priority order. At every release the job is
// classified by its flexibility degree (Definition 1):
//
//	FD = 0  → mandatory: the main copy joins the primary's MJQ and a
//	          backup copy joins the spare's MJQ with its release revised
//	          to r̃ = r + θi (Eq. 3); a successfully completed main
//	          cancels the backup immediately (Algorithm 1 line 3).
//	FD = 1  → eligible optional: admitted to the OJQ of the primary and
//	          the spare alternately (per task), so the optional workload
//	          spreads evenly across the two processors (principle (ii)).
//	FD ≥ 2  → skipped: recorded as a miss, costing nothing now while the
//	          task can still absorb it (principle (i)).
//
// A successful optional execution makes the task's next job optional
// again (the history update raises its FD), which is exactly how dynamic
// patterns demote would-be mandatory jobs and drop their backups.
// Optional jobs that can no longer finish by their deadline are never
// dispatched. When a processor dies, every subsequent job — mandatory or
// selected optional — routes to the survivor, and single mandatory copies
// are no longer postponed (they are the only copy left).
type selectivePolicy struct {
	opts policy.Options
	off  *analysis.Products
	an   *postpone.Analysis
	hist []*pattern.History
	// alt[i] counts task i's selected optional jobs; even → primary,
	// odd → spare (Figure 4's alternation).
	alt []int
}

func (p *selectivePolicy) Name() string { return policy.Selective.String() }

func (p *selectivePolicy) Init(e *sim.Engine) error {
	set := e.Set()
	p.off = policy.Offline(set, p.opts)
	an, err := p.off.Postponement()
	if err != nil {
		return fmt.Errorf("selective: %w", err)
	}
	p.an = an
	p.hist = policy.Histories(set)
	p.alt = make([]int, set.N())
	return nil
}

// theta returns the postponement used for task i's backups: θi, or Yi
// under the UsePromotionForTheta ablation.
func (p *selectivePolicy) theta(taskID int) timeu.Time {
	if p.opts.UsePromotionForTheta {
		return p.an.Y[taskID]
	}
	return p.an.Theta[taskID]
}

func (p *selectivePolicy) Release(e *sim.Engine, t *task.Task, index int) {
	fd := p.hist[t.ID].FlexibilityDegree()
	switch {
	case fd == 0:
		e.Counters().MandatoryJobs++
		main := e.NewJob(t, index, task.Mandatory)
		if e.Degraded() {
			e.Admit(main, e.Survivor())
			return
		}
		e.Admit(main, sim.Primary)
		e.Admit(e.NewBackup(t, index, p.theta(t.ID)), sim.Spare)
	case fd <= p.opts.FDThreshold:
		if p.off.Mandatory(t.ID, index) {
			e.Counters().Demotions++
		}
		e.Counters().OptionalSelected++
		j := e.NewJob(t, index, task.Optional)
		j.FD = fd
		proc := sim.Primary
		if !p.opts.NoAlternation && p.alt[t.ID]%2 == 1 {
			proc = sim.Spare
		}
		p.alt[t.ID]++
		e.Admit(j, proc)
	default:
		if p.off.Mandatory(t.ID, index) {
			e.Counters().Demotions++
		}
		e.SettleSkip(t.ID, index)
	}
}

func (p *selectivePolicy) Less(now timeu.Time, a, b *task.Job) bool {
	// MJQ before OJQ (Algorithm 1: "jobs in MJQ always have higher
	// priorities than those in OJQ"), plain FP within each queue.
	if a.Class != b.Class {
		return a.Class == task.Mandatory
	}
	return policy.FPLess(a, b)
}

func (p *selectivePolicy) Runnable(now timeu.Time, j *task.Job) bool {
	return j.Class == task.Mandatory || !j.Expired(now)
}

func (p *selectivePolicy) OnSettled(e *sim.Engine, taskID, index int, effective bool) {
	p.hist[taskID].Record(effective)
}

// Fork copies the policy with its outcome windows and alternation
// counters; the postponement analysis is shared.
func (p *selectivePolicy) Fork() sim.Policy {
	c := *p
	c.hist = pattern.CloneAll(p.hist)
	c.alt = slices.Clone(p.alt)
	return &c
}
