package sim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/task"
	"repro/internal/timeu"
)

// Forker is the optional Policy interface that lets a run fork. Fork
// returns a policy of the same kind in the same state that shares nothing
// mutable with the receiver: outcome histories and alternation counters
// are copied, while offline analyses, which no hook mutates, are shared.
// A policy with no per-run state may return the receiver.
type Forker interface {
	Policy
	Fork() Policy
}

// Fork is a fault-free run's state right after dispatch at its last stop
// before an instant at: the clock, the processors with the activation and
// promotion minima that dispatch recorded, the counters with each
// processor's time so far and the loop-pass count, the release calendar,
// the outcome rows, the open pairs with their copies, the live lists and
// a copy of the policy.
//
// A run of the same set, policy and configuration whose fault plan acts
// first at at — a permanent fault at at, no transient rate — takes the
// same decisions as the fault-free run up to that stop: the fault adds
// only the instant at to its stop scan, and nothing draws from its plan.
// So it can start from the fork (Config.Resume) instead of from 0; its
// next stop, computed with the fault included, is at. A Fork is never
// mutated once captured: resuming copies out of it, so one fork serves
// any number of resumed runs, concurrently.
type Fork struct {
	at       timeu.Time
	set      *task.Set
	horizon  timeu.Time
	power    PowerModel
	now      timeu.Time
	events   int
	procs    [NumProcs]processor // cur cleared: see cur
	cur      [NumProcs]int       // copy code (see copyCode) of the running copy, or -1
	counters Counters
	policy   Forker
	minRel   timeu.Time
	dueAt    timeu.Time
	tasks    []forkTask
	outcomes []bool // every task's outcome row, in task order
	// pairs are the open pairs in open order, copies cleared: pair i's
	// copies are the next ncopies records of jobs.
	pairs []jobPair
	jobs  []task.Job
	live  [NumProcs][]int // copy codes, in live-list order
}

// forkTask is one task's release calendar entry and the end of its
// outcome row in Fork.outcomes.
type forkTask struct {
	nextIdx int
	nextRel timeu.Time
	rowEnd  int
}

// ForkOf returns the fork r's run captured (Config.ForkAt), or nil.
func ForkOf(r *Result) *Fork { return r.fork }

// canFork reports whether the run may capture a fork: a fault-free plan,
// no sink, no trace (a resumed run could replay neither) and a policy
// that can hand over its state.
func (e *Engine) canFork() bool {
	_, ok := e.policy.(Forker)
	f := e.cfg.Faults
	return ok && f.Permanent == nil && f.TransientRate <= 0 && e.sink == nil && !e.cfg.RecordTrace
}

// capture records the run's state as a fork for a run whose fault acts
// at forkAt. RunContext calls it after the stop scan, which reads the
// state without changing it, so the fork holds the state right after
// dispatch.
func (e *Engine) capture() {
	s := e.scr
	f := &Fork{
		at: e.forkAt, set: e.set, horizon: e.cfg.Horizon, power: e.cfg.Power,
		now: e.now, events: e.events, procs: e.procs, counters: e.counters,
		policy: e.policy.(Forker).Fork().(Forker), minRel: s.minRel, dueAt: s.dueAt,
	}
	rows := 0
	for _, row := range s.outcomes {
		rows += len(row)
	}
	f.tasks = make([]forkTask, len(s.nextIdx))
	f.outcomes = make([]bool, 0, rows)
	for i := range f.tasks {
		f.outcomes = append(f.outcomes, s.outcomes[i]...)
		f.tasks[i] = forkTask{nextIdx: s.nextIdx[i], nextRel: s.nextRel[i], rowEnd: len(f.outcomes)}
	}
	copies := 0
	for _, p := range s.open {
		copies += p.ncopies
	}
	f.pairs = make([]jobPair, len(s.open))
	f.jobs = make([]task.Job, 0, copies)
	for i, p := range s.open {
		f.pairs[i] = *p
		f.pairs[i].copies = [NumProcs]*task.Job{}
		for _, c := range p.copies[:p.ncopies] {
			f.jobs = append(f.jobs, *c)
		}
	}
	for pid := range e.procs {
		f.procs[pid].cur = nil
		f.cur[pid] = -1
		if cur := e.procs[pid].cur; cur != nil {
			f.cur[pid] = copyCode(s.open, cur)
		}
		for _, j := range s.live[pid] {
			f.live[pid] = append(f.live[pid], copyCode(s.open, j))
		}
	}
	e.fork = f
	e.forkAt = timeu.Infinity
}

// copyCode names j as i·NumProcs + c when j is copy c of the i-th open
// pair, so a resumed run finds it as open[i].copies[c]. Every live copy
// belongs to an open pair: a pair settles only once none of its copies is
// live.
func copyCode(open []*jobPair, j *task.Job) int {
	for i, p := range open {
		for c, x := range p.copies[:p.ncopies] {
			if x == j {
				return i*NumProcs + c
			}
		}
	}
	panic(fmt.Sprintf("sim: live copy of task %d job %d belongs to no open pair", j.TaskID+1, j.Index))
}

// resume puts the engine, whose scratch New prepared, in f's state and
// continues with a copy of f's policy instead of the one New was given,
// which must be of the same approach; the policy is not initialized
// again. The set must equal the fork's task for task, not be the same
// value: two concurrent draws of one sweep interval yield equal sets.
func (e *Engine) resume(f *Fork) error {
	pf := e.cfg.Faults.Permanent
	switch {
	case !slices.Equal(f.set.Tasks, e.set.Tasks) || f.horizon != e.cfg.Horizon || f.power != e.cfg.Power ||
		f.policy.Name() != e.policy.Name():
		return errors.New("sim: resume from a fork of another run")
	case pf == nil || pf.At != f.at || e.cfg.Faults.TransientRate > 0:
		return fmt.Errorf("sim: resume needs a plan whose first fault is a permanent fault at %v", f.at)
	case e.sink != nil || e.cfg.RecordTrace:
		return errors.New("sim: a resumed run cannot be traced or observed")
	}
	s := e.scr
	start := 0
	for i, t := range f.tasks {
		s.nextIdx[i], s.nextRel[i] = t.nextIdx, t.nextRel
		s.outcomes[i] = append(s.outcomes[i], f.outcomes[start:t.rowEnd]...)
		start = t.rowEnd
	}
	s.minRel, s.dueAt = f.minRel, f.dueAt
	// Each open pair goes back into its task's slot, and its copies into
	// the task's job records in copy order: no two open pairs share a task.
	k := 0
	for i := range f.pairs {
		id := f.pairs[i].key.taskID
		p := &s.pairs[id]
		*p = f.pairs[i]
		for c := range p.ncopies {
			s.jobs[id][c] = f.jobs[k]
			p.copies[c] = &s.jobs[id][c]
			k++
		}
		s.open = append(s.open, p)
	}
	at := func(code int) *task.Job { return s.open[code/NumProcs].copies[code%NumProcs] }
	for pid := range f.live {
		for _, code := range f.live[pid] {
			s.live[pid] = append(s.live[pid], at(code))
		}
	}
	e.now, e.events, e.counters, e.procs = f.now, f.events, f.counters, f.procs
	for pid, code := range f.cur {
		if code >= 0 {
			e.procs[pid].cur = at(code)
		}
	}
	e.policy = f.policy.Fork()
	return nil
}
