package sim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// linearNextEvent re-implements the pre-wheel linear scan over the
// engine's state: next task release, running-copy completions, open pair
// deadlines, pending activations and promotions, and the permanent fault.
// The stop scan must reproduce it instant for instant — the engine's stop
// set decides the DPD sleep/idle split, so a single spurious or missing
// stop changes energy accounting.
func linearNextEvent(e *Engine) timeu.Time {
	next := e.cfg.Horizon
	add := func(t timeu.Time) {
		if t > e.now && t < next {
			next = t
		}
	}
	for i, t := range e.set.Tasks {
		add(t.Release(e.scr.nextIdx[i]))
	}
	for pid := range e.procs {
		if cur := e.procs[pid].cur; cur != nil {
			add(e.now + cur.Remaining)
		}
	}
	for _, p := range e.scr.open {
		add(p.dl)
	}
	for pid := 0; pid < NumProcs; pid++ {
		for _, j := range e.scr.live[pid] {
			if j.Done || j.Canceled {
				continue
			}
			add(j.Release)
			if j.Promote > e.now && j.Promote < j.Deadline {
				add(j.Promote)
			}
		}
	}
	if pf := e.cfg.Faults.Permanent; pf != nil && e.permHit == nil {
		add(pf.At)
	}
	return next
}

// checkStop fails t unless next equals linearNextEvent and every
// processor's activation and promotion minima, which dispatch's walk
// recorded and the DPD gap and the stop scan read, equal a fresh walk of
// its live list; run names the run in the message.
func checkStop(t *testing.T, e *Engine, next timeu.Time, run string) {
	t.Helper()
	if ref := linearNextEvent(e); next != ref {
		t.Fatalf("stop scan next %v != linear-scan next %v at now=%v (%s)", next, ref, e.now, run)
	}
	for pid := range e.procs {
		act, prom := timeu.Infinity, timeu.Infinity
		for _, j := range e.scr.live[pid] {
			if j.Done || j.Canceled {
				continue
			}
			if j.Release > e.now {
				act = min(act, j.Release)
			}
			if j.Promote > e.now && j.Promote < j.Deadline {
				prom = min(prom, j.Promote)
			}
		}
		if p := e.procs[pid]; p.nextAct != act || p.nextProm != prom {
			t.Fatalf("proc %d at now=%v recorded activation %v and promotion %v, a fresh walk finds %v and %v (%s)",
				pid, e.now, p.nextAct, p.nextProm, act, prom, run)
		}
	}
}

// stopPolicy stresses every class of stop the scan reads: postponed
// backup activations (theta), dual-priority-style promotions, and
// settle-skips, with single-processor routing once the engine is
// degraded.
// It classifies every admitted job as mandatory, so the run's counters
// satisfy metrics.CheckInvariants.
type stopPolicy struct {
	theta     []timeu.Time
	promote   []timeu.Time // Promote = Release + promote[id] when positive
	skipEvery int
}

func (p *stopPolicy) Name() string                              { return "test-stops" }
func (p *stopPolicy) Init(e *Engine) error                      { return nil }
func (p *stopPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }
func (p *stopPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	return a.Index < b.Index
}
func (p *stopPolicy) OnSettled(e *Engine, taskID, index int, effective bool) {}

func (p *stopPolicy) Release(e *Engine, t *task.Task, index int) {
	if p.skipEvery > 0 && (index+t.ID)%p.skipEvery == 0 {
		e.SettleSkip(t.ID, index)
		return
	}
	e.Counters().MandatoryJobs++
	main := e.NewJob(t, index, task.Mandatory)
	if p.promote != nil && p.promote[t.ID] > 0 {
		main.Promote = main.Release + p.promote[t.ID]
	}
	if e.Degraded() {
		e.Admit(main, e.Survivor())
		return
	}
	e.Admit(main, Primary)
	var th timeu.Time
	if p.theta != nil {
		th = p.theta[t.ID]
	}
	// The backup shares the main's promotion instant, so a copy can hold
	// a future activation and a future promotion at once.
	backup := e.NewBackup(t, index, th)
	backup.Promote = main.Promote
	e.Admit(backup, Spare)
}

// stopRun is everything that reproduces one cross-checked run: the set,
// the test policy's knobs and the fault draw.
type stopRun struct {
	set       *task.Set
	theta     []timeu.Time
	promote   []timeu.Time
	skipEvery int
	scenario  fault.Scenario
	faultSeed uint64
	horizon   timeu.Time
}

// runCrossChecked runs r on scr (nil means a fresh scratch), checking
// every stop with checkStop and the run's counters against their
// invariants. A failure names the set and the fault seed.
func runCrossChecked(t *testing.T, r stopRun, scr *Scratch) *Result {
	t.Helper()
	pol := &stopPolicy{theta: r.theta, promote: r.promote, skipEvery: r.skipEvery}
	plan := fault.NewPlan(r.scenario, r.horizon, stats.NewRand(r.faultSeed))
	eng, err := New(r.set, pol, Config{Horizon: r.horizon, Faults: plan, RecordTrace: true, Scratch: scr})
	if err != nil {
		t.Fatalf("New (set %v, fault seed %#x): %v", r.set, r.faultSeed, err)
	}
	run := fmt.Sprintf("set %v, %v, fault seed %#x", r.set, r.scenario, r.faultSeed)
	eng.checkNext = func(next timeu.Time) { checkStop(t, eng, next, run) }
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run (set %v, fault seed %#x): %v", r.set, r.faultSeed, err)
	}
	if bad := res.Counters.CheckInvariants(r.horizon); len(bad) > 0 {
		t.Fatalf("set %v, %v, fault seed %#x: counter invariants violated: %v", r.set, r.scenario, r.faultSeed, bad)
	}
	return res
}

// sameTrace fails unless the fresh-scratch and warm-scratch runs of r
// recorded identical traces.
func sameTrace(t *testing.T, r stopRun, fresh, warm *Result) {
	t.Helper()
	if len(fresh.Trace) != len(warm.Trace) {
		t.Fatalf("set %v, fault seed %#x: fresh trace has %d segments, warm %d", r.set, r.faultSeed, len(fresh.Trace), len(warm.Trace))
	}
	for i := range fresh.Trace {
		if fresh.Trace[i] != warm.Trace[i] {
			t.Fatalf("set %v, fault seed %#x, segment %d: fresh %+v != warm %+v", r.set, r.faultSeed, i, fresh.Trace[i], warm.Trace[i])
		}
	}
}

// TestStopsMatchLinearScanProperty is the randomized dispatch-order
// property: across random task sets, thetas, promotions, skips and fault
// plans, every stop the engine takes equals the old linear scan's, and
// every recorded activation and promotion minimum a fresh walk's.
func TestStopsMatchLinearScanProperty(t *testing.T) {
	gen := workload.NewGenerator(workload.DefaultConfig(), 0xCA1E)
	rng := stats.NewRand(0x0DD5)
	scr := NewScratch() // reused across runs: warm-scratch runs must match too
	sets := 0
	for draw := 0; sets < 30 && draw < 300; draw++ {
		target := 0.2 + 0.6*rng.Float64()
		s, err := gen.Candidate(target)
		if err != nil {
			continue
		}
		sets++
		r := stopRun{
			set:     s,
			theta:   make([]timeu.Time, s.N()),
			promote: make([]timeu.Time, s.N()),
			horizon: 200 * timeu.Millisecond,
		}
		if sets%3 == 0 {
			r.skipEvery = 3
		}
		for i := range s.Tasks {
			// Random off-grid instants exercise stops that share no grid
			// with the periods.
			r.theta[i] = timeu.Time(rng.Int64n(int64(s.Tasks[i].Deadline)))
			if rng.Intn(2) == 0 {
				r.promote[i] = timeu.Time(1 + rng.Int64n(int64(s.Tasks[i].Deadline)))
			}
		}
		r.scenario = fault.Scenario(sets % 3)
		r.faultSeed = rng.Uint64()
		// Same seed → same fault realization: a fresh-scratch run and a
		// warm-scratch rerun must produce identical traces.
		fresh := runCrossChecked(t, r, nil)
		warm := runCrossChecked(t, r, scr)
		sameTrace(t, r, fresh, warm)
	}
	if sets < 10 {
		t.Fatalf("only %d candidate sets drawn — generator config drifted?", sets)
	}
}

// coincidenceRun is an engineered coincidence at t=20ms:
//   - τ0 (period 10ms) releases job 3 at 20,
//   - τ1 job 1 (release 4ms, deadline 16ms) cannot finish by 20 and
//     settles as a miss exactly there, cancelling its backup whose
//     postponed activation also lands on 20,
//   - the spare — asleep since 11ms — wakes at 20 when the new τ0
//     backup is admitted.
func coincidenceRun() stopRun {
	t0 := task.New(0, 10, 10, 1, 1, 2)
	t1 := task.New(1, 20, 16, 16, 1, 2)
	t1.Offset = ms(4)
	return stopRun{
		set:     task.NewSet(t0, t1),
		theta:   []timeu.Time{ms(2), ms(16)},
		horizon: ms(30),
	}
}

// TestSameInstantBatching checks that one engine advance drains all of
// coincidenceRun's instant: a single stop at 20ms.
func TestSameInstantBatching(t *testing.T) {
	r := coincidenceRun()
	col := &metrics.Collector{}
	eng, err := New(r.set, &stopPolicy{theta: r.theta}, Config{
		Horizon: r.horizon,
		Sink:    col,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var stops []timeu.Time
	eng.checkNext = func(next timeu.Time) {
		checkStop(t, eng, next, fmt.Sprintf("set %v", r.set))
		stops = append(stops, next)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if bad := res.Counters.CheckInvariants(r.horizon); len(bad) > 0 {
		t.Fatalf("set %v, fault-free: counter invariants violated: %v", r.set, bad)
	}
	at20 := 0
	for i, st := range stops {
		if st == ms(20) {
			at20++
		}
		if i > 0 && st <= stops[i-1] {
			t.Fatalf("stops not strictly increasing: %v after %v", st, stops[i-1])
		}
	}
	if at20 != 1 {
		t.Fatalf("expected exactly one stop at 20ms (same-instant batching), got %d in %v", at20, stops)
	}
	kinds := map[metrics.EventKind]bool{}
	for _, ev := range col.Events {
		if ev.T == ms(20) {
			kinds[ev.Kind] = true
		}
	}
	for _, want := range []metrics.EventKind{metrics.EvRelease, metrics.EvSettle, metrics.EvCancel, metrics.EvWake, metrics.EvAdmit} {
		if !kinds[want] {
			t.Errorf("no %v event at the coincident instant 20ms (got kinds %v)", want, kinds)
		}
	}
}

// FuzzStopsMatchLinearScan checks every stop of a decoded run with
// checkStop, on a fresh scratch and on one warmed by coincidenceRun, and
// that the two runs record the same trace.
func FuzzStopsMatchLinearScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzStopRun(data)
		if err := r.set.Validate(); err != nil {
			t.Skip(err)
		}
		fresh := runCrossChecked(t, r, nil)
		scr := NewScratch()
		runCrossChecked(t, coincidenceRun(), scr)
		warm := runCrossChecked(t, r, scr)
		sameTrace(t, r, fresh, warm)
	})
}

// fuzzStopRun decodes data into a run (missing bytes read as zero).
// Bytes 0–2 pick the task count in [1, 8], the skip cadence in [0, 4]
// (0 = never) and the fault scenario; bytes 3–10 are the fault seed and
// bytes 11–13 the horizon in [1, 200] ms. Each task then reads 20
// bytes, all times in whole µs: a period in [100 µs, 200 ms], a
// deadline in [1 µs, P], a WCET in [1 µs, D], an offset in [0, 200] ms,
// k in [1, 16], m in [1, k], a θ in [0, D] and a promotion in [0, D]
// after release (0 = none). The 100 µs floor keeps a run to at most
// 2,000 releases per task. The ranges make every decoded task valid;
// the caller still asks task.Set.Validate, so a change to them cannot
// feed the engine an invalid set.
func fuzzStopRun(data []byte) stopRun {
	next := func(n int) uint64 {
		var b [8]byte
		copy(b[:n], data)
		data = data[min(n, len(data)):]
		return binary.LittleEndian.Uint64(b[:])
	}
	n := 1 + int(next(1)%8)
	r := stopRun{
		theta:   make([]timeu.Time, n),
		promote: make([]timeu.Time, n),
	}
	r.skipEvery = int(next(1) % 5)
	r.scenario = fault.Scenario(next(1) % 3)
	r.faultSeed = next(8)
	r.horizon = timeu.Millisecond + timeu.Time(next(3)%199_001)
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := 100 + timeu.Time(next(3)%199_901)
		d := 1 + timeu.Time(next(3))%p
		c := 1 + timeu.Time(next(3))%d
		off := timeu.Time(next(3) % 200_001)
		k := 1 + int(next(1)%16)
		m := 1 + int(next(1))%k
		tasks[i] = task.Task{Period: p, Deadline: d, WCET: c, M: m, K: k, Offset: off}
		r.theta[i] = timeu.Time(next(3)) % (d + 1)
		r.promote[i] = timeu.Time(next(3)) % (d + 1)
	}
	r.set = task.NewSet(tasks...)
	return r
}
