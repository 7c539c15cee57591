// Package sim is the discrete-event simulator for the paper's two-
// processor standby-sparing system. It owns time, the two processors,
// energy accounting with dynamic power-down, job-copy pairing (main on
// the primary, backup on the spare), outcome settlement against the
// (m,k) history, and fault injection. Scheduling decisions — which job
// copy goes where, in which priority band, and when backups become
// eligible — are delegated to a Policy; concrete implementations (the
// paper's four approaches plus extensions) live in the internal/sim/policy
// registry tree and are constructed by name, so the kernel never imports
// a policy.
//
// The engine is event-driven: between consecutive events (job releases,
// completions, deadlines, postponed-release/promotion activations, the
// permanent fault, and the horizon) the system state is constant, so the
// simulation advances in exact closed-form steps with no quantization
// error — all times are integer microseconds (see internal/timeu).
package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// NumProcs is fixed by the architecture: a primary and a spare.
const NumProcs = 2

// The observability layer hard-codes the same processor count.
var _ = [1]struct{}{}[NumProcs-metrics.NumProcs]

// Processor indices.
const (
	Primary = 0
	Spare   = 1
)

// Policy is the scheduling brain plugged into the engine. All hooks run
// at the engine's current time; policies must not mutate job fields other
// than through the documented engine calls. The engine owns the fault
// state: a policy asks Degraded, not a hook of its own, whether the
// permanent fault has left one survivor.
type Policy interface {
	// Name identifies the approach in reports ("MKSS-selective", ...).
	Name() string
	// Init is called once, after the engine is constructed and before
	// time starts; policies resolve their offline analyses here.
	Init(e *Engine) error
	// Release is called at each job release instant r_ij, in priority
	// order. The policy classifies the job and calls e.Admit for every
	// copy it wants scheduled (or e.SettleSkip to skip an optional job).
	// t points into the engine's task set and is read-only: the pointer
	// spares a copy of the task per release, not a license to mutate it.
	Release(e *Engine, t *task.Task, index int)
	// Less orders two eligible job copies competing for the same
	// processor; true means a runs before b.
	Less(now timeu.Time, a, b *task.Job) bool
	// Runnable reports whether j may be dispatched at now (policies use
	// this to avoid starting optional jobs that can no longer finish).
	Runnable(now timeu.Time, j *task.Job) bool
	// OnSettled reports the final outcome of job index of task taskID
	// (true = effective). Outcomes arrive in strictly increasing index
	// order per task.
	OnSettled(e *Engine, taskID, index int, effective bool)
}

// Config parameterizes one run.
type Config struct {
	// Power is the energy model; zero value means DefaultPower().
	Power PowerModel
	// Horizon is the simulated duration (must be positive). Jobs
	// releasing at or after the horizon do not exist; the run's energy
	// accounts exactly [0, Horizon).
	Horizon timeu.Time
	// Faults is the fault realization; nil means fault-free.
	Faults *fault.Plan
	// RecordTrace enables segment recording for Gantt output.
	RecordTrace bool
	// Sink, when non-nil, receives a structured event at every release,
	// admission, dispatch, preemption, completion, cancellation,
	// settlement, power-state transition and permanent fault. The nil
	// default costs the hot path nothing.
	Sink metrics.Sink
	// Scratch, when non-nil, supplies reusable working state (job records,
	// queues, buffers) so batch runs avoid per-run allocations; nil means
	// a private fresh Scratch. A Scratch must not be shared by two engines
	// at once.
	Scratch *Scratch
	// ForkAt, when positive, asks a fault-free run to capture a Fork for
	// runs whose permanent fault strikes at ForkAt; ForkOf returns it.
	// Runs with a fault, a Sink, RecordTrace or a policy that is not a
	// Forker capture nothing.
	ForkAt timeu.Time
	// Resume, when non-nil, starts the run from a fork of a fault-free run
	// of the same set, policy, power model and horizon instead of from 0.
	// The run's plan must put its permanent fault at the fork's instant
	// and draw no transients; the policy given to New is then only checked
	// for its name, and the run continues with a copy of the fork's.
	Resume *Fork
}

// Segment is one contiguous execution interval of a job copy on a
// processor, for trace rendering.
type Segment struct {
	Proc     int
	TaskID   int
	Index    int
	Copy     task.Copy
	Class    task.Class
	Start    timeu.Time
	End      timeu.Time
	Canceled bool // segment ended by cancellation/kill rather than preemption/completion
}

// Counters aggregates run statistics; the struct itself (field meanings,
// JSON names, invariants) is defined by the observability layer in
// internal/metrics.
type Counters = metrics.Counters

// Result is the outcome of one run.
type Result struct {
	Policy  string
	Horizon timeu.Time
	Power   PowerModel
	// Outcomes[i] is task i's realized 0/1 sequence over the run.
	Outcomes [][]bool
	// ViolationAt[i] is the 0-based index of the first (m,k) violation
	// of task i, or -1.
	ViolationAt []int
	// Counters holds the run's statistics, each processor's time
	// partition (Counters.Proc) among them.
	Counters Counters
	// Trace is non-nil when Config.RecordTrace was set.
	Trace []Segment
	// PermanentFault echoes the injected permanent fault, if any fired.
	PermanentFault *fault.Permanent

	fork *Fork // captured for Config.ForkAt; see ForkOf
}

// ActiveEnergy returns the total active energy (busy time × P_act) —
// the paper's metric.
func (r *Result) ActiveEnergy() float64 { return r.total().Busy.Millis() * r.Power.Active }

// TotalEnergy returns active + idle + sleep energy (dead time consumes
// none).
func (r *Result) TotalEnergy() float64 {
	t := r.total()
	return t.Busy.Millis()*r.Power.Active + t.Idle.Millis()*r.Power.Idle + t.Sleep.Millis()*r.Power.Sleep
}

// total sums the processors' time partitions.
func (r *Result) total() metrics.ProcTime {
	var t metrics.ProcTime
	for _, p := range r.Counters.Proc {
		t = t.Add(p)
	}
	return t
}

// MKSatisfied reports whether no task violated its (m,k) constraint.
func (r *Result) MKSatisfied() bool {
	for _, v := range r.ViolationAt {
		if v >= 0 {
			return false
		}
	}
	return true
}

// pairKey identifies a logical job J_ij.
type pairKey struct {
	taskID int
	index  int
}

// jobPair tracks the copies and settlement state of one logical job. In a
// standby-sparing system a job has at most one copy per processor (main on
// the primary, backup on the spare), so the copies array is fixed-size —
// no per-pair slice allocation.
type jobPair struct {
	key     pairKey
	copies  [NumProcs]*task.Job
	ncopies int
	dl      timeu.Time
	settled bool
}

// open reports whether the pair holds an admitted job not yet settled.
func (p *jobPair) open() bool { return p.ncopies > 0 && !p.settled }

type processor struct {
	id       int
	dead     bool
	asleep   bool
	cur      *task.Job
	curStart timeu.Time
	// nextAct and nextProm are the earliest future activation and
	// dual-priority promotion among the copies on the processor's live
	// list, as pick's walk found them at the last dispatch (timeu.Infinity
	// when none): the DPD gap and the stop scan read them.
	nextAct, nextProm timeu.Time
}

// Engine runs one simulation. Construct with New, run with Run. All
// mutable run state lives in the Scratch (owned or borrowed), so a warm
// Scratch makes repeated runs nearly allocation-free.
type Engine struct {
	set    *task.Set
	policy Policy
	cfg    Config
	scr    *Scratch

	now      timeu.Time
	procs    [NumProcs]processor
	counters Counters
	sink     metrics.Sink
	permHit  *fault.Permanent
	// permAt caches the pending permanent fault's instant so the per-event
	// checks compare one field instead of following cfg.Faults: it is
	// timeu.Infinity when the plan has no permanent fault or once it fired.
	permAt timeu.Time
	events int
	// maxEvents guards against runaway simulations: 64 events per released
	// job copy is far beyond any legitimate schedule.
	maxEvents int
	// forkAt is Config.ForkAt while the run still has a fork to capture,
	// else timeu.Infinity; fork is the captured one.
	forkAt timeu.Time
	fork   *Fork

	// checkNext, when non-nil, is called with every nextEventTime result
	// before the engine advances. Tests use it to cross-check the stop scan
	// against a reference scan; the nil check is the hot path's only cost.
	checkNext func(next timeu.Time)
}

// New constructs an engine; call Run (or RunContext) exactly once.
func New(set *task.Set, policy Policy, cfg Config) (*Engine, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.Horizon <= 0 {
		return nil, errors.New("sim: non-positive horizon")
	}
	if cfg.Power == (PowerModel{}) {
		cfg.Power = DefaultPower()
	}
	if cfg.Faults == nil {
		cfg.Faults = fault.NoFaults()
	}
	jobs := 0
	for _, t := range set.Tasks {
		jobs += int(cfg.Horizon/t.Period) + 2
	}
	scr := cfg.Scratch
	if scr == nil {
		scr = NewScratch()
	}
	scr.prepare(set.N())
	for i := range set.Tasks {
		r := set.Tasks[i].Release(1)
		scr.nextRel[i] = r
		if r < scr.minRel {
			scr.minRel = r
		}
	}
	e := &Engine{
		set:       set,
		policy:    policy,
		cfg:       cfg,
		scr:       scr,
		sink:      cfg.Sink,
		maxEvents: 64 * (jobs + 16) * NumProcs,
	}
	for p := 0; p < NumProcs; p++ {
		e.procs[p] = processor{id: p, nextAct: timeu.Infinity, nextProm: timeu.Infinity}
	}
	return e, nil
}

// NewJob returns the main copy of J_ij: task t's own main record in the
// run's scratch, initialized. Policies must build copies through
// NewJob/NewBackup (not task.NewJob) so batch runs reuse job records. A
// task has one open job at a time, so the record is free once the task's
// previous job settled; NewJob panics while that job is still open.
//
//mklint:hotpath
func (e *Engine) NewJob(t *task.Task, index int, class task.Class) *task.Job {
	e.scr.slot(t.ID, index)
	j := &e.scr.jobs[t.ID][task.Main]
	task.InitJob(j, t, index, class)
	return j
}

// NewBackup returns the backup copy of a mandatory job, postponed by theta
// (Eq. 3): task t's own backup record, as for NewJob.
//
//mklint:hotpath
func (e *Engine) NewBackup(t *task.Task, index int, theta timeu.Time) *task.Job {
	e.scr.slot(t.ID, index)
	j := &e.scr.jobs[t.ID][task.Backup]
	task.InitBackup(j, t, index, theta)
	return j
}

// Now returns the current simulation time (valid inside policy hooks).
func (e *Engine) Now() timeu.Time { return e.now }

// Set returns the task set under simulation.
func (e *Engine) Set() *task.Set { return e.set }

// Horizon returns the configured horizon.
func (e *Engine) Horizon() timeu.Time { return e.cfg.Horizon }

// Degraded reports whether the permanent fault has fired. From then on
// one processor survives, and policies admit every new job to it as the
// job's only copy.
func (e *Engine) Degraded() bool { return e.permHit != nil }

// Survivor returns the index of a live processor (the survivor after a
// permanent fault; Primary when both are alive).
func (e *Engine) Survivor() int {
	for p := 0; p < NumProcs; p++ {
		if !e.procs[p].dead {
			return p
		}
	}
	return Primary // unreachable: at most one permanent fault
}

// Counters gives policies access to the run counters (e.g. Demotions).
func (e *Engine) Counters() *Counters { return &e.counters }

// emitJob sends a job-copy event to the sink, if one is attached. The
// nil-sink check keeps the hot path allocation- and work-free when the
// run is not being observed.
//
//mklint:hotpath
func (e *Engine) emitJob(kind metrics.EventKind, proc int, j *task.Job, note string) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(metrics.Event{
		T:      e.now,
		Kind:   kind,
		Proc:   proc,
		TaskID: j.TaskID,
		Index:  j.Index,
		Copy:   int(j.Copy),
		Note:   note,
	})
}

// emitProc sends a processor-scoped event (sleep/wake/permanent fault).
//
//mklint:hotpath
func (e *Engine) emitProc(kind metrics.EventKind, proc int) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(metrics.Event{T: e.now, Kind: kind, Proc: proc, TaskID: -1, Copy: metrics.CopyNone})
}

// setSleep flips a processor's DPD state, counting and reporting the
// transition. Entering the low-power state and waking out of it are the
// two power-state transitions of the paper's DPD model.
//
//mklint:hotpath
func (e *Engine) setSleep(p *processor, asleep bool) {
	if p.asleep == asleep {
		return
	}
	p.asleep = asleep
	if asleep {
		e.counters.SleepEntries++
		e.emitProc(metrics.EvSleep, p.id)
	} else {
		e.counters.Wakeups++
		e.emitProc(metrics.EvWake, p.id)
	}
}

// Admit registers a job copy for scheduling on processor proc. Copies of
// the same logical job (same task and index) are paired automatically in
// the task's pair slot: the first successful completion settles the job
// effective and cancels the other copies. If proc is dead the copy is
// routed to the survivor. Admit panics while the task's previous job is
// still open.
//
//mklint:hotpath
func (e *Engine) Admit(j *task.Job, proc int) {
	if e.procs[proc].dead {
		proc = e.Survivor()
	}
	p := e.scr.slot(j.TaskID, j.Index)
	if !p.open() {
		*p = jobPair{key: pairKey{j.TaskID, j.Index}, dl: j.Deadline}
		e.scr.open = append(e.scr.open, p)
		// The pair settles at its deadline at the latest: keep the
		// due-scan lower bound current.
		if p.dl < e.scr.dueAt {
			e.scr.dueAt = p.dl
		}
	}
	if p.ncopies == len(p.copies) {
		panic(fmt.Sprintf("sim: more than %d copies admitted for task %d job %d", len(p.copies), j.TaskID+1, j.Index))
	}
	p.copies[p.ncopies] = j
	p.ncopies++
	e.scr.live[proc] = append(e.scr.live[proc], j)
	if j.Copy == task.Backup {
		e.counters.BackupsCreated++
	}
	e.emitJob(metrics.EvAdmit, proc, j, "")
	// New work may wake a sleeping processor (event wake; see DESIGN.md
	// on the DPD model).
	e.setSleep(&e.procs[proc], false)
}

// SettleSkip records a skipped optional job (never admitted) as a miss in
// the (m,k) history. Policies call it at release time. It builds no pair:
// the job has no copies to settle.
//
//mklint:hotpath
func (e *Engine) SettleSkip(taskID, index int) {
	if e.scr.slot(taskID, index).open() {
		panic("sim: SettleSkip on an admitted job")
	}
	e.counters.OptionalSkipped++
	if e.sink != nil {
		e.sink.Emit(metrics.Event{T: e.now, Kind: metrics.EvSkip, Proc: -1, TaskID: taskID, Index: index, Copy: metrics.CopyNone})
	}
	e.recordOutcome(taskID, index, false)
}

// recordOutcome appends the outcome of job index of task taskID, checking
// the strictly-increasing-index invariant, and notifies the policy.
//
//mklint:hotpath
func (e *Engine) recordOutcome(taskID, index int, effective bool) {
	if got := len(e.scr.outcomes[taskID]) + 1; got != index {
		panic(fmt.Sprintf("sim: outcome for %d-th job of task %d recorded out of order (expected %d)", index, taskID+1, got))
	}
	e.scr.outcomes[taskID] = append(e.scr.outcomes[taskID], effective)
	if effective {
		e.counters.Effective++
	} else {
		e.counters.Misses++
	}
	if e.sink != nil {
		e.sink.Emit(metrics.Event{T: e.now, Kind: metrics.EvSettle, Proc: -1, TaskID: taskID, Index: index, Copy: metrics.CopyNone, OK: effective})
	}
	e.policy.OnSettled(e, taskID, index, effective)
}

// Run executes the simulation and returns the result.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// ctxCheckStride is how many event-loop iterations pass between context
// polls: frequent enough that cancellation lands within microseconds of
// simulated work, rare enough that the select never shows in profiles.
const ctxCheckStride = 64

// RunContext executes the simulation, honoring ctx at event-loop
// granularity: a canceled context aborts the run within ctxCheckStride
// events and returns ctx.Err() (wrapped), so batch drivers can tear down
// promptly on SIGINT or deadline.
//
// A fresh run initializes its policy and makes its first pass at 0; a run
// resumed from a fork (Config.Resume) starts where the fork's run stood
// after that pass's dispatch, with its loop-pass count, so the event
// budget and the context stride count as in a run from 0. Both then go
// through the same loop.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if f := e.cfg.Resume; f != nil {
		if err := e.resume(f); err != nil {
			return nil, err
		}
	} else if err := e.policy.Init(e); err != nil {
		return nil, fmt.Errorf("sim: policy init: %w", err)
	}
	// Read the fault plan here, not in New: the plan is part of the
	// configuration until the run starts.
	e.permAt = timeu.Infinity
	if pf := e.cfg.Faults.Permanent; pf != nil {
		e.permAt = pf.At
	}
	e.forkAt = timeu.Infinity
	if e.cfg.ForkAt > 0 && e.canFork() {
		e.forkAt = e.cfg.ForkAt
	}
	done := ctx.Done()
	if done != nil {
		// Short runs can finish inside one check stride; a context that
		// is dead on arrival must still abort.
		select {
		case <-done:
			return nil, fmt.Errorf("sim: run aborted at %v: %w", e.now, ctx.Err())
		default:
		}
	}
	// The horizon is positive, so a fresh run's pass at 0 never ends it.
	end := false
	if e.cfg.Resume == nil {
		end = e.pass()
	}
	for !end {
		next, err := e.nextEventTime()
		if err != nil {
			return nil, err
		}
		if next > e.cfg.Horizon {
			next = e.cfg.Horizon
		}
		// The first stop whose successor reaches forkAt is the last one
		// before it: a run faulting at forkAt resumes from here.
		if next >= e.forkAt {
			e.capture()
		}
		e.advance(next)
		e.events++
		if e.events > e.maxEvents {
			return nil, fmt.Errorf("sim: event budget exceeded (%d) — runaway simulation", e.maxEvents)
		}
		if done != nil && e.events%ctxCheckStride == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("sim: run aborted at %v: %w", e.now, ctx.Err())
			default:
			}
		}
		end = e.pass()
	}
	e.finish()
	return e.result(), nil
}

// pass makes the state changes of the stop at now: completions,
// deadlines and the permanent fault, then, unless now is the horizon
// (which it reports), releases and dispatch.
//
//mklint:hotpath
func (e *Engine) pass() bool {
	e.processCompletions()
	e.processDeadlines()
	e.processPermanentFault()
	if e.now >= e.cfg.Horizon {
		return true
	}
	e.processReleases()
	e.dispatch()
	return false
}

// processReleases fires Policy.Release for every job releasing now. Jobs
// whose deadline falls beyond the horizon are never released: the run
// accounts whole jobs only, matching how the paper counts energy "within
// the hyper period" in its worked examples (e.g. the last τ2 job of
// Figure 3, released at 24 with deadline 28, does not execute before 25).
//
// The scan is guarded by the cached minimum next release: between release
// instants it costs one comparison. One firing drains every task
// releasing at this instant (in priority order — same-instant batching),
// then recomputes minRel, the single next release instant the stop scan
// reads. The per-task release calendar (nextRel, kept equal to
// Release(nextIdx)) makes the drain a comparison per task and an addition
// per release.
//
//mklint:hotpath
func (e *Engine) processReleases() {
	if e.scr.minRel != e.now {
		return
	}
	idx, rel := e.scr.nextIdx, e.scr.nextRel
	tasks := e.set.Tasks
	minRel := timeu.Infinity
	for i := range tasks {
		// RunContext calls this only while now < Horizon, so a task due
		// now is released before the horizon; periods are positive, so it
		// is due at most once per instant.
		if rel[i] == e.now {
			t := &tasks[i]
			if rel[i]+t.Deadline <= e.cfg.Horizon {
				e.counters.Released++
				if e.sink != nil {
					e.sink.Emit(metrics.Event{T: e.now, Kind: metrics.EvRelease, Proc: -1, TaskID: i, Index: idx[i], Copy: metrics.CopyNone})
				}
				e.policy.Release(e, t, idx[i])
			}
			idx[i]++
			rel[i] += t.Period
		}
		minRel = min(minRel, rel[i])
	}
	e.scr.minRel = minRel
}

// processCompletions finishes job copies whose demand reached zero.
//
//mklint:hotpath
func (e *Engine) processCompletions() {
	for pid := range e.procs {
		p := &e.procs[pid]
		j := p.cur
		if j == nil || j.Remaining > 0 {
			continue
		}
		e.closeSegment(p, false)
		p.cur = nil
		j.Done = true
		e.counters.Completions++
		// Transient faults strike during execution and are detected by
		// the end-of-job sanity check (§II-B).
		note := ""
		if e.cfg.Faults.TransientDuring(j.WCET) {
			j.Faulty = true
			e.counters.TransientFaults++
			note = "faulty"
		}
		e.emitJob(metrics.EvComplete, p.id, j, note)
		e.removeLive(p.id, j)
		if j.Completed() {
			e.settleEffective(j)
		} else {
			e.copyFailed(j)
		}
	}
}

// settleEffective marks the logical job effective and cancels sibling
// copies (the standby-sparing cancellation that saves spare energy).
//
//mklint:hotpath
func (e *Engine) settleEffective(j *task.Job) {
	p := &e.scr.pairs[j.TaskID]
	if p.settled {
		return
	}
	p.settled = true
	e.dropOpen(p)
	if j.Copy == task.Backup {
		// The spare carried the job after the main copy was lost or
		// faulty — the standby-sparing recovery actually paying off.
		e.counters.BackupRecoveries++
	}
	for _, c := range p.copies[:p.ncopies] {
		if c == j || c.Done || c.Canceled {
			continue
		}
		e.cancelCopy(c, "sibling-effective")
	}
	e.recordOutcome(j.TaskID, j.Index, true)
}

// copyFailed handles a copy that completed faulty: if no other copy can
// still succeed, the job is settled as a miss immediately.
//
//mklint:hotpath
func (e *Engine) copyFailed(j *task.Job) {
	p := &e.scr.pairs[j.TaskID]
	if p.settled {
		return
	}
	for _, c := range p.copies[:p.ncopies] {
		if !c.Done && !c.Canceled {
			return // a sibling copy may still complete
		}
	}
	p.settled = true
	e.dropOpen(p)
	e.recordOutcome(j.TaskID, j.Index, false)
}

// cancelCopy removes a pending/running copy from the system; reason is a
// static annotation for the event stream ("sibling-effective",
// "deadline", "permanent-fault").
//
//mklint:hotpath
func (e *Engine) cancelCopy(c *task.Job, reason string) {
	c.Canceled = true
	proc := -1
	for pid := 0; pid < NumProcs; pid++ {
		p := &e.procs[pid]
		if p.cur == c {
			e.closeSegment(p, true)
			p.cur = nil
			proc = pid
		}
		e.removeLive(pid, c)
	}
	if c.Copy == task.Backup {
		if c.Started {
			e.counters.BackupsCanceledPartial++
		} else {
			e.counters.BackupsCanceledClean++
		}
	}
	e.emitJob(metrics.EvCancel, proc, c, reason)
}

// processDeadlines settles every open pair whose deadline has arrived and
// aborts its unfinished copies.
//
// The scan is guarded by dueAt, a lower bound on the earliest open
// deadline (lowered on admission, recomputed exactly after each scan;
// early settlement may leave it conservatively low, costing at worst one
// empty scan at an already-scheduled stop).
//
//mklint:hotpath
func (e *Engine) processDeadlines() {
	if e.scr.dueAt > e.now {
		return
	}
	// Iterate over a snapshot: settlement mutates e.scr.open. The snapshot
	// buffer lives in the scratch so steady-state runs don't allocate.
	due := e.scr.due[:0]
	for _, p := range e.scr.open {
		if !p.settled && p.dl <= e.now {
			due = append(due, p)
		}
	}
	e.scr.due = due
	for _, p := range due {
		p.settled = true
		e.dropOpen(p)
		for _, c := range p.copies[:p.ncopies] {
			if !c.Done && !c.Canceled {
				e.cancelCopy(c, "deadline")
			}
		}
		e.recordOutcome(p.key.taskID, p.key.index, false)
	}
	dueAt := timeu.Infinity
	for _, p := range e.scr.open {
		if p.dl < dueAt {
			dueAt = p.dl
		}
	}
	e.scr.dueAt = dueAt
}

// processPermanentFault kills the faulted processor when its time comes.
func (e *Engine) processPermanentFault() {
	if e.permAt > e.now {
		return
	}
	pf := e.cfg.Faults.Permanent
	e.permAt = timeu.Infinity
	e.permHit = pf
	e.counters.PermanentFaults++
	e.emitProc(metrics.EvPermanentFault, pf.Proc)
	p := &e.procs[pf.Proc]
	if p.cur != nil {
		e.closeSegment(p, true)
	}
	// Every copy on the dead processor is lost. Siblings on the survivor
	// become the job's only chance; jobs with no surviving copy settle as
	// misses at their deadline.
	for _, c := range e.scr.live[pf.Proc] {
		c.Canceled = true
		if c.Copy == task.Backup {
			if c.Started {
				e.counters.BackupsCanceledPartial++
			} else {
				e.counters.BackupsCanceledClean++
			}
		}
		e.emitJob(metrics.EvCancel, pf.Proc, c, "permanent-fault")
	}
	e.scr.live[pf.Proc] = e.scr.live[pf.Proc][:0]
	p.cur = nil
	p.dead = true
	p.nextAct, p.nextProm = timeu.Infinity, timeu.Infinity
	// The dead processor leaves the power-state machine entirely; this is
	// not a DPD wake-up, so clear the flag without counting a transition.
	p.asleep = false
}

// dispatch re-evaluates, on each live processor, which eligible copy runs,
// handling preemption, and decides idle-vs-sleep for empty processors.
//
//mklint:hotpath
func (e *Engine) dispatch() {
	for pid := range e.procs {
		p := &e.procs[pid]
		if p.dead {
			continue
		}
		pick := e.pick(p)
		if pick != p.cur {
			if p.cur != nil {
				e.closeSegment(p, false)
				// The displaced copy is preempted (it is neither done nor
				// canceled — those paths clear cur before dispatch runs).
				e.counters.Preemptions++
				e.emitJob(metrics.EvPreempt, p.id, p.cur, "")
			}
			p.cur = pick
			if pick != nil {
				e.setSleep(p, false)
				pick.Started = true
				p.curStart = e.now
				e.counters.Dispatches++
				e.emitJob(metrics.EvDispatch, p.id, pick, "")
			}
		}
		if p.cur == nil {
			// DPD decision (Algorithm 1 lines 10–15): sleep through the
			// gap to the next known activation if it exceeds T_be. That is
			// the earliest pending activation among copies already assigned
			// here (Algorithm 1's wake timer consults the earliest arrival
			// among queued jobs) or the next release of any task (a release
			// may route a new copy here — the scheduler knows periodic
			// release times in advance). Should work still arrive earlier
			// (e.g. a job migrated after a permanent fault), the processor
			// wakes at assignment.
			next := p.nextAct
			if r := e.scr.minRel; r < e.cfg.Horizon {
				next = min(next, r)
			}
			e.setSleep(p, next-e.now > e.cfg.Power.BreakEven)
		}
	}
}

// pick returns the policy's highest-priority runnable copy on p. Its walk
// of p's live list also records p's earliest future activation and
// promotion, which the DPD gap and the stop scan read. Live copies are
// neither done nor canceled: completion, cancellation and the permanent
// fault take them off the list.
//
//mklint:hotpath
func (e *Engine) pick(p *processor) *task.Job {
	now := e.now
	var best *task.Job
	act, prom := timeu.Infinity, timeu.Infinity
	for _, j := range e.scr.live[p.id] {
		if j.Promote > now && j.Promote < j.Deadline {
			prom = min(prom, j.Promote)
		}
		if j.Release > now {
			act = min(act, j.Release)
			continue
		}
		if !e.policy.Runnable(now, j) {
			continue
		}
		if best == nil || e.policy.Less(now, j, best) {
			best = j
		}
	}
	p.nextAct, p.nextProm = act, prom
	return best
}

// nextEventTime computes the next instant anything can change by scanning
// the state the engine already keeps: the cached next task release, the
// deadlines of the open pairs, each processor's earliest future
// activation (backup r̃ = r + θ) and dual-priority promotion as this
// stop's dispatch recorded them, the completion of whatever runs now, and
// the permanent fault. Every stop re-decides DPD (Algorithm 1 lines
// 10–15), so the stop set is part of the energy result; read from live
// state, it holds no entry that could go stale and split a sleep with a
// spurious stop.
//
//mklint:hotpath
func (e *Engine) nextEventTime() (timeu.Time, error) {
	now := e.now
	next := e.cfg.Horizon
	// processReleases has run at this instant, so minRel is in the future.
	if e.scr.minRel < next {
		next = e.scr.minRel
	}
	for _, p := range e.scr.open {
		if p.dl > now && p.dl < next {
			next = p.dl
		}
	}
	for pid := range e.procs {
		// Nothing changes the live lists between dispatch and here, and a
		// resumed run carries the minima over in its fork's processors; a
		// dead processor's read Infinity since the fault emptied its list.
		next = min(next, e.procs[pid].nextAct, e.procs[pid].nextProm)
		if cur := e.procs[pid].cur; cur != nil {
			if t := now + cur.Remaining; t > now && t < next {
				next = t
			}
		}
	}
	if e.permAt > now && e.permAt < next {
		next = e.permAt
	}
	if next <= now && now < e.cfg.Horizon {
		//mklint:allow hotpath — stall diagnostic on a should-never-happen error path
		return 0, fmt.Errorf("sim: stalled at %v (no future event)", now)
	}
	if e.checkNext != nil {
		e.checkNext(next)
	}
	return next, nil
}

// advance moves time to t, accruing each processor's time partition
// and execution progress.
//
//mklint:hotpath
func (e *Engine) advance(t timeu.Time) {
	delta := t - e.now
	if delta < 0 {
		panic("sim: time went backwards")
	}
	for pid := range e.procs {
		p := &e.procs[pid]
		pt := &e.counters.Proc[pid]
		switch {
		case p.dead:
			pt.Dead += delta
		case p.cur != nil:
			pt.Busy += delta
			p.cur.Remaining -= delta
		case p.asleep:
			pt.Sleep += delta
		default:
			pt.Idle += delta
		}
	}
	e.now = t
}

// finish closes accounting at the horizon: running segments are closed,
// still-open pairs settle by their deadline rule only if the deadline is
// within the horizon (it always is for constrained-deadline tasks released
// before Horizon−P, and edge jobs settle here conservatively as misses
// only when their deadline has passed).
func (e *Engine) finish() {
	for pid := range e.procs {
		p := &e.procs[pid]
		if p.cur != nil {
			e.closeSegment(p, false)
			p.cur = nil
		}
	}
	// Settle pairs whose deadline is exactly at the horizon or whose
	// copies all finished; anything still genuinely in flight (deadline
	// beyond horizon) is dropped from the outcome sequences — it is not
	// a miss, the simulation simply ended first.
	e.processDeadlines()
}

// closeSegment records the current execution segment of processor p
// (no-op unless tracing is enabled and the segment has positive length).
//
//mklint:hotpath
func (e *Engine) closeSegment(p *processor, canceled bool) {
	if !e.cfg.RecordTrace || p.cur == nil || p.curStart == e.now {
		return
	}
	j := p.cur
	e.scr.trace = append(e.scr.trace, Segment{
		Proc:     p.id,
		TaskID:   j.TaskID,
		Index:    j.Index,
		Copy:     j.Copy,
		Class:    j.Class,
		Start:    p.curStart,
		End:      e.now,
		Canceled: canceled,
	})
}

// removeLive deletes j from proc's live list.
//
//mklint:hotpath
func (e *Engine) removeLive(proc int, j *task.Job) {
	l := e.scr.live[proc]
	for i, x := range l {
		if x == j {
			l[i] = l[len(l)-1]
			e.scr.live[proc] = l[:len(l)-1]
			return
		}
	}
}

// dropOpen removes a settled pair from the open list.
//
//mklint:hotpath
func (e *Engine) dropOpen(p *jobPair) {
	open := e.scr.open
	for i, x := range open {
		if x == p {
			open[i] = open[len(open)-1]
			e.scr.open = open[:len(open)-1]
			return
		}
	}
}

// result assembles the Result.
func (e *Engine) result() *Result {
	if e.sink != nil {
		// Best effort: a sink error is an observability problem, not a
		// simulation failure.
		_ = e.sink.Flush()
	}
	// Outcomes and Trace are copied out of the scratch: the Result outlives
	// this run, while the scratch buffers are rewound for the next one.
	outcomes := make([][]bool, e.set.N())
	for i, row := range e.scr.outcomes {
		outcomes[i] = append([]bool(nil), row...)
	}
	r := &Result{
		Policy:         e.policy.Name(),
		Horizon:        e.cfg.Horizon,
		Power:          e.cfg.Power,
		Outcomes:       outcomes,
		ViolationAt:    make([]int, e.set.N()),
		Counters:       e.counters,
		Trace:          append([]Segment(nil), e.scr.trace...),
		PermanentFault: e.permHit,
		fork:           e.fork,
	}
	for i, t := range e.set.Tasks {
		r.ViolationAt[i] = pattern.FirstViolation(outcomes[i], t.M, t.K)
	}
	return r
}
