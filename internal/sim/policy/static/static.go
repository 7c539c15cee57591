// Package static implements the statically partitioned baselines of the
// paper: MKSS_ST (concurrent main+backup execution of every R-pattern
// mandatory job) and MKSS_DP (dual-priority procrastination), plus the
// MKSS-DP-background extension. All three classify jobs offline from the
// static (m,k) pattern; the dynamic schemes live in the sibling dynamic
// and dbp packages.
package static

import (
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
)

func init() {
	policy.Register(policy.ST, func(opts policy.Options) sim.Policy {
		return &stPolicy{opts: opts}
	})
	policy.Register(policy.DP, func(opts policy.Options) sim.Policy {
		return &dpPolicy{opts: opts}
	})
	policy.Register(policy.DPBackground, func(opts policy.Options) sim.Policy {
		return &dpPolicy{opts: opts, background: true}
	})
}

// stPolicy is MKSS_ST: static pattern, both copies of every mandatory job
// released concurrently (main on the primary, backup on the spare), plain
// FP on each processor, optional jobs never executed. It is the energy
// reference of §V: the two processors run near-identical schedules, so
// backup cancellation saves almost nothing.
type stPolicy struct {
	opts policy.Options
	dead [sim.NumProcs]bool
}

func (p *stPolicy) Name() string { return policy.ST.String() }

func (p *stPolicy) Init(e *sim.Engine) error { return nil }

func (p *stPolicy) Release(e *sim.Engine, t *task.Task, index int) {
	if !policy.StaticMandatory(&p.opts, t, index) {
		e.SettleSkip(t.ID, index)
		return
	}
	e.Counters().MandatoryJobs++
	main := e.NewJob(t, index, task.Mandatory)
	if p.dead[sim.Primary] || p.dead[sim.Spare] {
		// Single survivor: one copy only.
		e.Admit(main, e.Survivor())
		return
	}
	e.Admit(main, sim.Primary)
	e.Admit(e.NewBackup(t, index, 0), sim.Spare)
}

func (p *stPolicy) Less(now timeu.Time, a, b *task.Job) bool { return policy.FPLess(a, b) }

func (p *stPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }

func (p *stPolicy) OnSettled(e *sim.Engine, taskID, index int, effective bool) {}

func (p *stPolicy) OnPermanentFault(e *sim.Engine, dead int) { p.dead[dead] = true }

// dpPolicy is MKSS_DP: the preference-oriented dual-priority baseline
// reconstructed from Figure 1. Main copies alternate across the two
// processors by task index (τ1 main on the primary, τ2 main on the spare,
// ...); each backup runs on the opposite processor with its release
// procrastinated by the promotion interval Yi = Di − Ri (Eq. 2), after
// which it competes at its regular fixed priority. A main that completes
// successfully cancels its backup, which is the entire energy play.
type dpPolicy struct {
	opts policy.Options
	ys   []timeu.Time
	dead [sim.NumProcs]bool
	// background switches to textbook dual-priority (the DPBackground
	// extension): backups are eligible from their nominal release but run
	// in a background band until promotion at r + Yi, instead of being
	// absent until r + Yi.
	background bool
}

func (p *dpPolicy) Name() string {
	if p.background {
		return policy.DPBackground.String()
	}
	return policy.DP.String()
}

func (p *dpPolicy) Init(e *sim.Engine) error {
	if off := p.opts.Offline; off != nil {
		p.ys = off.PromotionTimes()
	} else {
		p.ys = rta.PromotionTimesSafe(e.Set())
	}
	return nil
}

// mainProc returns the processor hosting task i's main copies (Figure 1's
// alternating assignment).
func (p *dpPolicy) mainProc(taskID int) int { return taskID % sim.NumProcs }

func (p *dpPolicy) Release(e *sim.Engine, t *task.Task, index int) {
	if !policy.StaticMandatory(&p.opts, t, index) {
		e.SettleSkip(t.ID, index)
		return
	}
	e.Counters().MandatoryJobs++
	main := e.NewJob(t, index, task.Mandatory)
	if p.dead[sim.Primary] || p.dead[sim.Spare] {
		e.Admit(main, e.Survivor())
		return
	}
	mp := p.mainProc(t.ID)
	e.Admit(main, mp)
	if p.background {
		backup := e.NewBackup(t, index, 0)
		backup.Promote = backup.BaseRelease + p.ys[t.ID]
		e.Admit(backup, 1-mp)
	} else {
		e.Admit(e.NewBackup(t, index, p.ys[t.ID]), 1-mp)
	}
}

// dpBand returns 0 (regular) or 1 (background). Only DPBackground's
// pre-promotion backups ever sit in the background band.
func dpBand(now timeu.Time, j *task.Job) int {
	if j.Promote > now {
		return 1
	}
	return 0
}

func (p *dpPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if p.background {
		ba, bb := dpBand(now, a), dpBand(now, b)
		if ba != bb {
			return ba < bb
		}
	}
	return policy.FPLess(a, b)
}

func (p *dpPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }

func (p *dpPolicy) OnSettled(e *sim.Engine, taskID, index int, effective bool) {}

func (p *dpPolicy) OnPermanentFault(e *sim.Engine, dead int) { p.dead[dead] = true }
