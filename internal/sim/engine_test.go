package sim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
)

func ms(v float64) timeu.Time { return timeu.FromMillis(v) }

// fpPolicy is a minimal test policy: every job is mandatory, main on the
// primary and backup on the spare (optionally postponed), plain FP.
type fpPolicy struct {
	theta     []timeu.Time
	skipEvery int // settle-skip every n-th job of task 0 (0 = never)
	single    bool
}

func (p *fpPolicy) Name() string                              { return "test-fp" }
func (p *fpPolicy) Init(e *Engine) error                      { return nil }
func (p *fpPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }
func (p *fpPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	return a.Index < b.Index
}
func (p *fpPolicy) OnSettled(e *Engine, taskID, index int, effective bool) {}

func (p *fpPolicy) Release(e *Engine, t *task.Task, index int) {
	if p.skipEvery > 0 && t.ID == 0 && index%p.skipEvery == 0 {
		e.SettleSkip(t.ID, index)
		return
	}
	main := task.NewJob(*t, index, task.Mandatory)
	if p.single || e.Degraded() {
		e.Admit(main, e.Survivor())
		return
	}
	e.Admit(main, Primary)
	var th timeu.Time
	if p.theta != nil {
		th = p.theta[t.ID]
	}
	e.Admit(task.NewBackup(*t, index, th), Spare)
}

func oneTask() *task.Set { return task.NewSet(task.New(0, 10, 10, 3, 1, 2)) }

func TestEngineRejectsBadConfig(t *testing.T) {
	if _, err := New(oneTask(), &fpPolicy{}, Config{Horizon: 0}); err == nil {
		t.Error("zero horizon must be rejected")
	}
	bad := &task.Set{Tasks: []task.Task{{ID: 0, Period: -1}}}
	if _, err := New(bad, &fpPolicy{}, Config{Horizon: ms(10)}); err == nil {
		t.Error("invalid set must be rejected")
	}
}

func TestSingleTaskEnergyAndAccounting(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{}, Config{Horizon: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 10 jobs, both copies run fully (they finish simultaneously):
	// 10 * 3 * 2 = 60 units.
	if got := r.ActiveEnergy(); got != 60 {
		t.Errorf("active energy = %v, want 60", got)
	}
	// Accounting closes: each processor accounts exactly the horizon.
	for pid, pt := range r.Counters.Proc {
		if pt.Span() != ms(100) {
			t.Errorf("proc %d span = %v, want 100ms", pid, pt.Span())
		}
	}
	// All jobs effective.
	if r.Counters.Effective != 10 || r.Counters.Misses != 0 {
		t.Errorf("effective/misses = %d/%d", r.Counters.Effective, r.Counters.Misses)
	}
	if !r.MKSatisfied() {
		t.Error("MK violated")
	}
}

func TestDPDSleepVsIdle(t *testing.T) {
	// One job of 3ms per 10ms: the 7ms gap exceeds Tbe=1ms, so the
	// primary must sleep through it (with postponement the spare too).
	e, err := New(oneTask(), &fpPolicy{theta: []timeu.Time{ms(7)}}, Config{Horizon: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Primary: runs [0,3], then idle-or-sleep [3,10]. No more live jobs
	// on the primary -> nextWork = Infinity -> sleeps.
	if r.Counters.Proc[Primary].Sleep != ms(7) {
		t.Errorf("primary sleep = %v, want 7ms", r.Counters.Proc[Primary].Sleep)
	}
	// Spare: backup postponed to 7, canceled at 3 when the main
	// completes. [0,3] it waits for release 7 (gap 7 > 1 -> asleep);
	// cancellation leaves nothing -> stays asleep to horizon.
	if r.Counters.Proc[Spare].Busy != 0 {
		t.Errorf("spare active = %v, want 0", r.Counters.Proc[Spare].Busy)
	}
	if r.Counters.Proc[Spare].Sleep != ms(10) {
		t.Errorf("spare sleep = %v, want 10ms", r.Counters.Proc[Spare].Sleep)
	}
	if r.Counters.BackupsCanceledClean != 1 {
		t.Errorf("clean cancels = %d, want 1", r.Counters.BackupsCanceledClean)
	}
}

func TestShortGapStaysIdle(t *testing.T) {
	// Task with 9.5ms WCET per 10ms: gap 0.5ms < Tbe -> idle, not sleep.
	s := task.NewSet(task.New(0, 10, 10, 9.5, 1, 2))
	e, err := New(s, &fpPolicy{single: true}, Config{Horizon: ms(20)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Gap [9.5,10) precedes a known release 0.5ms away (< Tbe): idle.
	// Gap [19.5,20) has no future work at all: the processor powers down.
	if r.Counters.Proc[Primary].Idle != ms(0.5) {
		t.Errorf("idle = %v, want 0.5ms", r.Counters.Proc[Primary].Idle)
	}
	if r.Counters.Proc[Primary].Sleep != ms(0.5) {
		t.Errorf("sleep = %v, want 0.5ms", r.Counters.Proc[Primary].Sleep)
	}
}

func TestPreemptionByHigherPriority(t *testing.T) {
	// tau1=(10,10,2), tau2=(10,10,6) single-proc: tau2 starts after tau1.
	// Releases at 0: J11 [0,2], J21 [2,8].
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2), task.New(1, 10, 10, 6, 1, 2))
	e, err := New(s, &fpPolicy{single: true}, Config{Horizon: ms(10), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) != 2 {
		t.Fatalf("trace = %+v", r.Trace)
	}
	if r.Trace[0].TaskID != 0 || r.Trace[0].End != ms(2) {
		t.Errorf("segment 0 = %+v", r.Trace[0])
	}
	if r.Trace[1].TaskID != 1 || r.Trace[1].Start != ms(2) || r.Trace[1].End != ms(8) {
		t.Errorf("segment 1 = %+v", r.Trace[1])
	}
}

func TestDeadlineMissRecorded(t *testing.T) {
	// Overload: two tasks of 6ms each per 10ms on one processor; tau2
	// misses every deadline.
	s := task.NewSet(task.New(0, 10, 10, 6, 1, 2), task.New(1, 10, 10, 6, 1, 2))
	e, err := New(s, &fpPolicy{single: true}, Config{Horizon: ms(20)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Misses == 0 {
		t.Error("expected misses under overload")
	}
	if r.ViolationAt[1] < 0 {
		t.Error("tau2 must violate (1,2) after consecutive misses")
	}
	if r.MKSatisfied() {
		t.Error("MKSatisfied must be false")
	}
}

func TestSettleSkipOrdering(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{skipEvery: 2, single: true}, Config{Horizon: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 2,4,6,8,10 skipped; outcomes alternate hit/miss.
	if len(r.Outcomes[0]) != 10 {
		t.Fatalf("outcomes = %v", r.Outcomes[0])
	}
	for i, ok := range r.Outcomes[0] {
		want := (i+1)%2 == 1
		if ok != want {
			t.Errorf("outcome[%d] = %v, want %v", i, ok, want)
		}
	}
	if r.Counters.OptionalSkipped != 5 {
		t.Errorf("skipped = %d, want 5", r.Counters.OptionalSkipped)
	}
}

func TestPermanentFaultOnSpare(t *testing.T) {
	pf := &fault.Plan{Permanent: &fault.Permanent{At: ms(15), Proc: Spare}}
	e, err := New(oneTask(), &fpPolicy{theta: []timeu.Time{ms(7)}}, Config{Horizon: ms(50), Faults: pf})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.PermanentFault == nil {
		t.Fatal("permanent fault not recorded")
	}
	// Spare dead from 15 on: 35ms dead time.
	if r.Counters.Proc[Spare].Dead != ms(35) {
		t.Errorf("spare dead time = %v, want 35ms", r.Counters.Proc[Spare].Dead)
	}
	// All 5 jobs still effective (mains unaffected).
	if r.Counters.Effective != 5 || !r.MKSatisfied() {
		t.Errorf("effective = %d, mk = %v", r.Counters.Effective, r.MKSatisfied())
	}
}

func TestPermanentFaultOnPrimaryBackupTakesOver(t *testing.T) {
	// Kill the primary at t=1, mid-execution of the main (job [0,3]).
	// The backup (postponed to 7) must complete the job on the spare.
	pf := &fault.Plan{Permanent: &fault.Permanent{At: ms(1), Proc: Primary}}
	e, err := New(oneTask(), &fpPolicy{theta: []timeu.Time{ms(7)}}, Config{Horizon: ms(20), Faults: pf, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.Effective != 2 || !r.MKSatisfied() {
		t.Errorf("effective = %d, want 2 (both jobs recovered); outcomes %v", r.Counters.Effective, r.Outcomes[0])
	}
	// The backup of job 1 must have executed on the spare from t=7.
	var sawBackup bool
	for _, seg := range r.Trace {
		if seg.Proc == Spare && seg.Copy == task.Backup && seg.Index == 1 {
			sawBackup = true
			if seg.Start != ms(7) {
				t.Errorf("backup started at %v, want 7ms", seg.Start)
			}
		}
	}
	if !sawBackup {
		t.Error("backup never ran on the spare")
	}
	// Primary accounting: 1ms of activity then dead.
	if r.Counters.Proc[Primary].Busy != ms(1) || r.Counters.Proc[Primary].Dead != ms(19) {
		t.Errorf("primary time = %+v", r.Counters.Proc[Primary])
	}
}

func TestTransientFaultForcesBackup(t *testing.T) {
	// Rate high enough that the main essentially always faults; the
	// backup then runs to completion. Both copies may fault — outcomes
	// can be misses, but energy must show backups running.
	plan := fault.NoFaults().WithTransientRate(10) // ~1 per 0.1ms: certain fault
	e, err := New(oneTask(), &fpPolicy{theta: []timeu.Time{ms(7)}}, Config{Horizon: ms(10), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.TransientFaults == 0 {
		t.Error("expected transient faults at huge rate")
	}
	// Main [0,3] faults; backup [7,10] must run fully: active = 6.
	if got := r.ActiveEnergy(); got != 6 {
		t.Errorf("active energy = %v, want 6", got)
	}
}

func TestTransientFaultStatistics(t *testing.T) {
	// At the paper's rate 1e-6/ms and 3ms jobs, faults are ~3-in-a-
	// million; over 1000 jobs expect almost surely zero.
	plan := fault.NewPlan(fault.PermanentAndTransient, ms(10000), stats.NewRand(1))
	plan.Permanent = nil // transients only for this test
	e, err := New(oneTask(), &fpPolicy{single: true}, Config{Horizon: ms(10000), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters.TransientFaults > 2 {
		t.Errorf("transient faults = %d, expected ~0 at 1e-6", r.Counters.TransientFaults)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		plan := fault.NewPlan(fault.PermanentAndTransient, ms(500), stats.NewRand(99))
		e, err := New(oneTask(), &fpPolicy{theta: []timeu.Time{ms(7)}}, Config{Horizon: ms(500), Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.ActiveEnergy() != b.ActiveEnergy() || a.Counters != b.Counters {
		t.Error("same seed must give identical results")
	}
}

func TestBoundaryJobNotReleased(t *testing.T) {
	// Horizon 15: job 2 releases at 10 with deadline 20 > 15 — must not
	// be released at all.
	e, err := New(oneTask(), &fpPolicy{single: true}, Config{Horizon: ms(15)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes[0]) != 1 {
		t.Errorf("outcomes = %v, want exactly 1", r.Outcomes[0])
	}
	if got := r.ActiveEnergy(); got != 3 {
		t.Errorf("energy = %v, want 3", got)
	}
}

func TestResultStrings(t *testing.T) {
	if !strings.Contains(DefaultPower().String(), "Tbe") {
		t.Error("power String")
	}
}

// TestEnergyHelpers pins Result's energy figures: both processors' busy
// time at P_act, plus idle and sleep time at their powers for the total;
// dead time costs nothing.
func TestEnergyHelpers(t *testing.T) {
	r := &Result{Power: PowerModel{Active: 1, Idle: 0.5, Sleep: 0.25, BreakEven: ms(1)}}
	r.Counters.Proc[Primary] = metrics.ProcTime{Busy: ms(10), Idle: ms(5), Sleep: ms(3), Dead: ms(2)}
	r.Counters.Proc[Spare] = metrics.ProcTime{Busy: ms(4), Idle: ms(1), Sleep: ms(15)}
	if got := r.ActiveEnergy(); got != 14 {
		t.Errorf("ActiveEnergy = %v, want 14", got)
	}
	want := 14 + 6*0.5 + 18*0.25
	if got := r.TotalEnergy(); got != want {
		t.Errorf("TotalEnergy = %v, want %v", got, want)
	}
}

func TestPreemptionCounterAndOverhead(t *testing.T) {
	// tau2 starts at 0, tau1 preempts at 5 (release of its job 1 with
	// offset): use offset via a long-WCET low-priority task instead:
	// tau1=(10,10,2) releases at 0 and 10; tau2=(20,20,12) runs in
	// between and is preempted once at t=10.
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2), task.New(1, 20, 20, 12, 1, 2))
	e, err := New(s, &fpPolicy{single: true}, Config{Horizon: ms(20)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// J11 [0,2], J21 [2,10], preempted by J12 [10,12], J21 [12,16].
	if r.Counters.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", r.Counters.Preemptions)
	}
	if got := r.ActiveEnergy(); got != 16 {
		t.Errorf("energy = %v, want 16", got)
	}
	if r.Counters.Misses != 0 {
		t.Errorf("misses = %d", r.Counters.Misses)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{single: true}, Config{Horizon: ms(1000)})
	if err != nil {
		t.Fatal(err)
	}
	e.maxEvents = 3
	if _, err := e.Run(); err == nil || !strings.Contains(err.Error(), "event budget exceeded") {
		t.Errorf("a tiny event budget must trip the runaway guard, got %v", err)
	}
}

func TestBackupCompletingBeforeMain(t *testing.T) {
	// Force the main to be delayed by a higher-priority hog on the
	// primary while the spare runs the backup immediately: the backup
	// completes first and must cancel the *main*.
	hog := task.New(0, 20, 20, 10, 1, 2)
	tk := task.New(1, 20, 20, 3, 1, 2)
	s := task.NewSet(hog, tk)
	p := &splitPolicy{}
	e, err := New(s, p, Config{Horizon: ms(20), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// tau2's backup runs [0,3] on the spare; its main never starts on
	// the primary (hog runs [0,10], main canceled at 3).
	if r.Counters.Effective != 2 {
		t.Errorf("effective = %d, want 2", r.Counters.Effective)
	}
	for _, seg := range r.Trace {
		if seg.Proc == Primary && seg.TaskID == 1 {
			t.Errorf("tau2 main executed despite backup finishing first: %+v", seg)
		}
	}
	if got := r.ActiveEnergy(); got != 13 {
		t.Errorf("energy = %v, want 13 (hog 10 + backup 3)", got)
	}
}

// splitPolicy: task 0 main-only on the primary; task 1 main on primary
// plus an immediate backup on the spare (no postponement).
type splitPolicy struct{}

func (p *splitPolicy) Name() string                              { return "test-split" }
func (p *splitPolicy) Init(e *Engine) error                      { return nil }
func (p *splitPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }
func (p *splitPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	return a.Index < b.Index
}
func (p *splitPolicy) OnSettled(e *Engine, taskID, index int, effective bool) {}
func (p *splitPolicy) Release(e *Engine, t *task.Task, index int) {
	e.Admit(task.NewJob(*t, index, task.Mandatory), Primary)
	if t.ID == 1 {
		e.Admit(task.NewBackup(*t, index, 0), Spare)
	}
}

func TestAdmitToDeadProcReroutes(t *testing.T) {
	// Kill the spare at 0; a policy that still admits backups to the
	// spare must see them rerouted to the primary (the survivor).
	pf := &fault.Plan{Permanent: &fault.Permanent{At: 0, Proc: Spare}}
	// Unlike fpPolicy, stubbornPolicy never asks Degraded, so it keeps
	// admitting both copies.
	p := &stubbornPolicy{}
	e, err := New(oneTask(), p, Config{Horizon: ms(20), RecordTrace: true})
	_ = pf
	if err != nil {
		t.Fatal(err)
	}
	e.cfg.Faults = pf
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range r.Trace {
		if seg.Proc == Spare {
			t.Errorf("segment on dead spare: %+v", seg)
		}
	}
	// Both jobs still effective via the primary copies.
	if r.Counters.Effective != 2 {
		t.Errorf("effective = %d, want 2; outcomes %v", r.Counters.Effective, r.Outcomes)
	}
}

// stubbornPolicy keeps admitting backups to the spare even after it dies.
type stubbornPolicy struct{}

func (p *stubbornPolicy) Name() string                              { return "test-stubborn" }
func (p *stubbornPolicy) Init(e *Engine) error                      { return nil }
func (p *stubbornPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }
func (p *stubbornPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return a.Copy == task.Main && b.Copy == task.Backup
}
func (p *stubbornPolicy) OnSettled(e *Engine, taskID, index int, effective bool) {}
func (p *stubbornPolicy) Release(e *Engine, t *task.Task, index int) {
	e.Admit(task.NewJob(*t, index, task.Mandatory), Primary)
	e.Admit(task.NewBackup(*t, index, 0), Spare)
}

func TestSurvivor(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{}, Config{Horizon: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	if e.Survivor() != Primary {
		t.Error("with both alive, Survivor should report the primary")
	}
	e.procs[Primary].dead = true
	if e.Survivor() != Spare {
		t.Error("with the primary dead, Survivor must be the spare")
	}
}

func TestSettleSkipPanicsOnAdmittedJob(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{}, Config{Horizon: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	tk := e.Set().Tasks[0]
	e.Admit(task.NewJob(tk, 1, task.Mandatory), Primary)
	defer func() {
		if got := recover(); got != "sim: SettleSkip on an admitted job" {
			t.Errorf("SettleSkip on an admitted job panicked with %v", got)
		}
	}()
	e.SettleSkip(0, 1)
}

// TestSlotReusedAtDeadlineRelease runs a D = P task, τ2, whose main and
// backup both still run at the deadline, where its next job is released
// into the same pair slot and job records. At every multiple of 10 ms
// the deadline settles job j a miss and cancels both copies, then job
// j+1 is released. τ1's main ends at 7 ms and cancels τ1's backup, which
// started at 3 ms. Outcomes, counters and trace are pinned on a fresh
// scratch and on one warmed by another run.
func TestSlotReusedAtDeadlineRelease(t *testing.T) {
	r := stopRun{
		set:     task.NewSet(task.New(0, 10, 10, 7, 1, 2), task.New(1, 10, 10, 4, 1, 2)),
		theta:   []timeu.Time{ms(3), ms(7)},
		horizon: ms(30),
	}
	var want []Segment
	for k := 0; k < 3; k++ {
		at := ms(10 * float64(k))
		want = append(want,
			Segment{Proc: Primary, TaskID: 0, Index: k + 1, Copy: task.Main, Start: at, End: at + ms(7)},
			Segment{Proc: Spare, TaskID: 0, Index: k + 1, Copy: task.Backup, Start: at + ms(3), End: at + ms(7), Canceled: true},
			Segment{Proc: Primary, TaskID: 1, Index: k + 1, Copy: task.Main, Start: at + ms(7), End: at + ms(10), Canceled: true},
			Segment{Proc: Spare, TaskID: 1, Index: k + 1, Copy: task.Backup, Start: at + ms(7), End: at + ms(10), Canceled: true})
	}
	wantCounters := Counters{
		Released: 6, MandatoryJobs: 6, Effective: 3, Misses: 3,
		BackupsCreated: 6, BackupsCanceledPartial: 6,
		Dispatches: 12, Completions: 3, SleepEntries: 3, Wakeups: 3,
	}
	wantCounters.Proc[Primary].Busy = ms(30)
	wantCounters.Proc[Spare].Busy, wantCounters.Proc[Spare].Sleep = ms(21), ms(9)
	scr := NewScratch()
	runCrossChecked(t, coincidenceRun(), scr)
	for _, c := range []struct {
		name string
		scr  *Scratch
	}{{"fresh", nil}, {"warm", scr}} {
		res := runCrossChecked(t, r, c.scr)
		if !slices.Equal(res.Outcomes[0], []bool{true, true, true}) || !slices.Equal(res.Outcomes[1], []bool{false, false, false}) {
			t.Errorf("%s: outcomes %v, want τ1 all effective and τ2 all missed", c.name, res.Outcomes)
		}
		if res.Counters != wantCounters {
			t.Errorf("%s: counters\n%+v, want\n%+v", c.name, res.Counters, wantCounters)
		}
		if !slices.Equal(res.Trace, want) {
			t.Errorf("%s: trace\n%+v, want\n%+v", c.name, res.Trace, want)
		}
	}
}

// lookaheadPolicy is stopPolicy that also builds or admits the next job
// of each task at its release, through one engine call, while the job
// just admitted is still open.
type lookaheadPolicy struct {
	stopPolicy
	call string
}

func (p *lookaheadPolicy) Release(e *Engine, t *task.Task, index int) {
	p.stopPolicy.Release(e, t, index)
	switch p.call {
	case "Admit":
		e.Admit(task.NewJob(*t, index+1, task.Mandatory), Primary)
	case "NewJob":
		e.NewJob(t, index+1, task.Mandatory)
	case "NewBackup":
		e.NewBackup(t, index+1, 0)
	}
}

// TestSecondOpenJobPanics checks that a task never has two open jobs:
// Admit, NewJob and NewBackup panic, naming the task and both indices,
// when the task's earlier job is still open.
func TestSecondOpenJobPanics(t *testing.T) {
	for _, call := range []string{"Admit", "NewJob", "NewBackup"} {
		e, err := New(oneTask(), &lookaheadPolicy{call: call}, Config{Horizon: ms(30)})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if got := recover(); got != "sim: task 1 job 2 while job 1 is still open" {
					t.Errorf("%s of job 2 while job 1 is open panicked with %v", call, got)
				}
			}()
			_, err := e.Run()
			t.Errorf("%s of job 2 while job 1 is open: no panic (err %v)", call, err)
		}()
	}
}

func TestOutcomeOrderInvariantPanics(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{}, Config{Horizon: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order outcome must panic")
		}
	}()
	e.recordOutcome(0, 3, true) // job 1 not settled yet
}

func TestSimultaneousCompletionBothCopies(t *testing.T) {
	// ST-style: main and backup of the same job complete at the same
	// instant. Exactly one outcome must be recorded and it must be
	// effective.
	e, err := New(oneTask(), &fpPolicy{}, Config{Horizon: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes[0]) != 1 || !r.Outcomes[0][0] {
		t.Errorf("outcomes = %v, want [true]", r.Outcomes[0])
	}
	// Both copies ran fully: 6 units.
	if got := r.ActiveEnergy(); got != 6 {
		t.Errorf("energy = %v, want 6", got)
	}
}

func TestPerTaskAttribution(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{theta: []timeu.Time{ms(7)}}, Config{Horizon: ms(20), RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats := r.PerTask()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	ts := stats[0]
	if ts.Released != 2 || ts.Effective != 2 || ts.Misses != 0 {
		t.Errorf("outcome counts wrong: %+v", ts)
	}
	// Two mains of 3ms each; backups canceled cleanly (postponed to 7,
	// mains finish at 3 and 13).
	if ts.MainTime != ms(6) {
		t.Errorf("MainTime = %v, want 6ms", ts.MainTime)
	}
	if ts.BackupTime != 0 {
		t.Errorf("BackupTime = %v, want 0", ts.BackupTime)
	}
	if ts.MKViolatedAt != -1 {
		t.Errorf("MKViolatedAt = %d", ts.MKViolatedAt)
	}
	if got := ts.Energy(r.Power); got != 6 {
		t.Errorf("Energy = %v, want 6", got)
	}
	tbl := r.PerTaskTable()
	if !strings.Contains(tbl, "tau1") || !strings.Contains(tbl, "6ms") {
		t.Errorf("table:\n%s", tbl)
	}
}

func TestPerTaskWithoutTrace(t *testing.T) {
	e, err := New(oneTask(), &fpPolicy{}, Config{Horizon: ms(20)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ts := r.PerTask()[0]
	if ts.MainTime != 0 || ts.Released != 2 {
		t.Errorf("untraced attribution wrong: %+v", ts)
	}
}
