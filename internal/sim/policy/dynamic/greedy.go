// Package dynamic implements the dynamic-pattern schemes of the paper:
// the §III greedy straw-man and MKSS_selective (Algorithm 1). Both
// classify each job at release from the task's sliding outcome window
// (pattern.History) instead of a static pattern; the distance-based DBP
// scheme lives in the sibling dbp package.
package dynamic

import (
	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
)

func init() {
	policy.Register(policy.Greedy, func(opts policy.Options) sim.Policy {
		return &greedyPolicy{opts: opts}
	})
	policy.Register(policy.Selective, func(opts policy.Options) sim.Policy {
		return &selectivePolicy{opts: opts}
	})
}

// greedyPolicy is the §III straw-man: dynamic (m,k) patterns with *every*
// optional job admitted for execution, greedily, on the primary processor
// only. Mandatory jobs (flexibility degree 0) run as in the DP baseline —
// main on the primary, backup on the spare postponed by Yi. The paper
// shows (Figure 3) that this over-executes optional jobs on systems with
// modest workload: an executed optional keeps future jobs optional, which
// greedy then also executes, so the task ends up running (almost) every
// job on one processor instead of m-of-k.
//
// Queue discipline, reconstructed from the figures: mandatory jobs always
// beat optional ones; among optional jobs the *least flexible* (smallest
// FD at release) goes first (footnote 1: O21 with FD 1 is "less flexible,
// more urgent" than O11 with FD 2), ties broken by release order then
// task index. An optional job that can no longer complete by its deadline
// is never dispatched (O11 in Figure 2 "will not be invoked at all").
type greedyPolicy struct {
	opts policy.Options
	off  *analysis.Products
	ys   []timeu.Time
	hist []*pattern.History
}

func (p *greedyPolicy) Name() string { return policy.Greedy.String() }

func (p *greedyPolicy) Init(e *sim.Engine) error {
	set := e.Set()
	p.off = policy.Offline(set, p.opts)
	p.ys = p.off.PromotionTimes()
	p.hist = policy.Histories(set)
	return nil
}

func (p *greedyPolicy) Release(e *sim.Engine, t *task.Task, index int) {
	fd := p.hist[t.ID].FlexibilityDegree()
	if fd == 0 {
		e.Counters().MandatoryJobs++
		main := e.NewJob(t, index, task.Mandatory)
		if e.Degraded() {
			e.Admit(main, e.Survivor())
			return
		}
		e.Admit(main, sim.Primary)
		e.Admit(e.NewBackup(t, index, p.ys[t.ID]), sim.Spare)
		return
	}
	if p.off.Mandatory(t.ID, index) {
		e.Counters().Demotions++
	}
	e.Counters().OptionalSelected++
	j := e.NewJob(t, index, task.Optional)
	j.FD = fd
	e.Admit(j, sim.Primary)
}

func (p *greedyPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if a.Class != b.Class {
		return a.Class == task.Mandatory
	}
	if a.Class == task.Mandatory {
		return policy.FPLess(a, b)
	}
	if a.FD != b.FD {
		return a.FD < b.FD
	}
	if a.Release != b.Release {
		return a.Release < b.Release
	}
	return policy.FPLess(a, b)
}

func (p *greedyPolicy) Runnable(now timeu.Time, j *task.Job) bool {
	return j.Class == task.Mandatory || !j.Expired(now)
}

func (p *greedyPolicy) OnSettled(e *sim.Engine, taskID, index int, effective bool) {
	p.hist[taskID].Record(effective)
}

// Fork copies the policy with its outcome windows.
func (p *greedyPolicy) Fork() sim.Policy {
	c := *p
	c.hist = pattern.CloneAll(p.hist)
	return &c
}
