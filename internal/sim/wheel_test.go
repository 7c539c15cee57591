package sim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

func wheelFor(set *task.Set) *timeWheel {
	w := &timeWheel{}
	w.sizeFor(set)
	return w
}

func TestWheelSizeForGCD(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 8, 1, 1, 2), task.New(1, 25, 20, 1, 1, 2))
	w := wheelFor(s)
	// GCD(10ms, 8ms, 25ms, 20ms) = 1ms.
	if want := timeu.Millisecond; w.delta != want {
		t.Fatalf("delta = %v, want %v", w.delta, want)
	}
	s2 := task.NewSet(task.New(0, 20, 20, 1, 1, 2), task.New(1, 40, 40, 1, 1, 2))
	if w2 := wheelFor(s2); w2.delta != 20*timeu.Millisecond {
		t.Fatalf("harmonic delta = %v, want 20ms", w2.delta)
	}
}

func TestWheelScheduleNextAfter(t *testing.T) {
	w := wheelFor(oneTask())
	for _, x := range []timeu.Time{ms(7), ms(3), ms(3), ms(11), ms(5000)} {
		w.schedule(x)
	}
	// nextAfter is strictly-after: advancing past an instant consumes it,
	// duplicates included.
	now := timeu.Time(0)
	for _, want := range []timeu.Time{ms(3), ms(7), ms(11), ms(5000), timeu.Infinity} {
		if got := w.nextAfter(now); got != want {
			t.Fatalf("nextAfter(%v) = %v, want %v", now, got, want)
		}
		now = want
	}
	if w.count != 0 {
		t.Fatalf("count = %d after draining, want 0", w.count)
	}
}

func TestWheelDuplicatesAndUnschedule(t *testing.T) {
	w := wheelFor(oneTask())
	w.schedule(ms(4))
	w.schedule(ms(4))
	w.unschedule(ms(4))
	if got := w.nextAfter(0); got != ms(4) {
		t.Fatalf("one duplicate must survive unschedule, got next %v", got)
	}
	w.unschedule(ms(4))
	// Unscheduling an absent instant must be a tolerated no-op.
	w.unschedule(ms(4))
	if got := w.nextAfter(0); got != timeu.Infinity {
		t.Fatalf("wheel should be empty, got next %v", got)
	}
	if w.count != 0 {
		t.Fatalf("count = %d, want 0", w.count)
	}
}

func TestWheelLapSeparation(t *testing.T) {
	w := wheelFor(oneTask()) // delta = 10ms for the (10,10) task
	// Same bucket, one lap apart: the windowed walk must return the
	// near instant, never the far lap.
	near, far := ms(30), ms(30)+wheelBuckets*w.delta
	w.schedule(far)
	w.schedule(near)
	if got := w.nextAfter(0); got != near {
		t.Fatalf("nextAfter(0) = %v, want near lap %v", got, near)
	}
	if got := w.nextAfter(near); got != far {
		t.Fatalf("nextAfter(near) = %v, want far lap %v", got, far)
	}
}

func TestWheelSparseTailFallback(t *testing.T) {
	w := wheelFor(oneTask())
	// Farther than wheelScanLimit windows away: only scanAll can find it.
	lone := (wheelScanLimit + 50) * w.delta
	w.schedule(lone)
	if got := w.nextAfter(0); got != lone {
		t.Fatalf("sparse tail: nextAfter(0) = %v, want %v", got, lone)
	}
}

// linearNextEvent re-implements the pre-wheel linear scan over the
// engine's state: next task release, running-copy completions, open pair
// deadlines, pending activations and promotions, and the permanent fault.
// The wheel must reproduce it instant for instant — the engine's stop set
// decides the DPD sleep/idle split, so a single spurious or missing stop
// changes energy accounting.
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

// wheelPolicy stresses every class of wheel-scheduled instant: postponed
// backup activations (theta), dual-priority-style promotions, and
// settle-skips, with single-processor routing after a permanent fault.
type wheelPolicy struct {
	theta     []timeu.Time
	promote   []timeu.Time // Promote = Release + promote[id] when positive
	skipEvery int
	dead      bool
}

func (p *wheelPolicy) Name() string                              { return "test-wheel" }
func (p *wheelPolicy) Init(e *Engine) error                      { return nil }
func (p *wheelPolicy) Runnable(now timeu.Time, j *task.Job) bool { return true }
func (p *wheelPolicy) Less(now timeu.Time, a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	return a.Index < b.Index
}
func (p *wheelPolicy) OnSettled(e *Engine, taskID, index int, effective bool) {}
func (p *wheelPolicy) OnPermanentFault(e *Engine, dead int)                   { p.dead = true }

func (p *wheelPolicy) Release(e *Engine, t *task.Task, index int) {
	if p.skipEvery > 0 && (index+t.ID)%p.skipEvery == 0 {
		e.SettleSkip(t.ID, index)
		return
	}
	main := e.NewJob(t, index, task.Mandatory)
	if p.promote != nil && p.promote[t.ID] > 0 {
		main.Promote = main.Release + p.promote[t.ID]
	}
	if p.dead {
		e.Admit(main, e.Survivor())
		return
	}
	e.Admit(main, Primary)
	var th timeu.Time
	if p.theta != nil {
		th = p.theta[t.ID]
	}
	e.Admit(e.NewBackup(t, index, th), Spare)
}

// runCrossChecked runs one simulation comparing the wheel's nextEventTime
// against linearNextEvent at every iteration.
func runCrossChecked(t *testing.T, s *task.Set, pol Policy, plan *fault.Plan, scr *Scratch) *Result {
	t.Helper()
	horizon := 200 * timeu.Millisecond
	eng, err := New(s, pol, Config{Horizon: horizon, Faults: plan, RecordTrace: true, Scratch: scr})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.checkNext = func(next timeu.Time) {
		if ref := linearNextEvent(eng); next != ref {
			t.Fatalf("wheel next %v != linear-scan next %v at now=%v (set %v)", next, ref, eng.now, s)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestWheelMatchesLinearScanProperty is the randomized dispatch-order
// property: across random task sets, thetas, promotions, skips and fault
// plans, every wheel-produced event instant equals the old linear scan's.
func TestWheelMatchesLinearScanProperty(t *testing.T) {
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
		pol := &wheelPolicy{
			theta:   make([]timeu.Time, s.N()),
			promote: make([]timeu.Time, s.N()),
		}
		if sets%3 == 0 {
			pol.skipEvery = 3
		}
		for i := range s.Tasks {
			// Random off-grid instants exercise the non-divisible bucket
			// hashing paths.
			pol.theta[i] = timeu.Time(rng.Int64n(int64(s.Tasks[i].Deadline)))
			if rng.Intn(2) == 0 {
				pol.promote[i] = timeu.Time(1 + rng.Int64n(int64(s.Tasks[i].Deadline)))
			}
		}
		scenario := fault.Scenario(sets % 3)
		faultSeed := rng.Uint64()
		// Same seed → same fault realization: a fresh-scratch run and a
		// warm-scratch rerun must produce identical traces.
		fresh := runCrossChecked(t, s, pol,
			fault.NewPlan(scenario, 200*timeu.Millisecond, stats.NewRand(faultSeed)), nil)
		pol.dead = false
		warm := runCrossChecked(t, s, pol,
			fault.NewPlan(scenario, 200*timeu.Millisecond, stats.NewRand(faultSeed)), scr)
		if len(fresh.Trace) != len(warm.Trace) {
			t.Fatalf("set %d: fresh trace has %d segments, warm %d", sets, len(fresh.Trace), len(warm.Trace))
		}
		for i := range fresh.Trace {
			if fresh.Trace[i] != warm.Trace[i] {
				t.Fatalf("set %d segment %d: fresh %+v != warm %+v", sets, i, fresh.Trace[i], warm.Trace[i])
			}
		}
	}
	if sets < 10 {
		t.Fatalf("only %d candidate sets drawn — generator config drifted?", sets)
	}
}

func TestWheelSameInstantBatching(t *testing.T) {
	// Engineered coincidence at t=20ms:
	//   - τ0 (period 10ms) releases job 3 at 20,
	//   - τ1 job 1 (release 4ms, deadline 16ms) cannot finish by 20 and
	//     settles as a miss exactly there, cancelling its backup whose
	//     postponed activation also lands on 20,
	//   - the spare — asleep since 11ms — wakes at 20 when the new τ0
	//     backup is admitted.
	// One wheel advance must drain all of it: a single stop at 20ms.
	t0 := task.New(0, 10, 10, 1, 1, 2)
	t1 := task.New(1, 20, 16, 16, 1, 2)
	t1.Offset = ms(4)
	s := task.NewSet(t0, t1)
	col := &metrics.Collector{}
	eng, err := New(s, &wheelPolicy{theta: []timeu.Time{ms(2), ms(16)}}, Config{
		Horizon: ms(30),
		Sink:    col,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var stops []timeu.Time
	eng.checkNext = func(next timeu.Time) {
		if ref := linearNextEvent(eng); next != ref {
			t.Fatalf("wheel next %v != linear-scan next %v at now=%v", next, ref, eng.now)
		}
		stops = append(stops, next)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
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

// checkOccupancy asserts the bitmap invariant: bucket b's bit is set
// exactly when the bucket holds an entry, and count is their total.
func checkOccupancy(t *testing.T, w *timeWheel, seed uint64, step int) {
	t.Helper()
	n := 0
	for b := range w.buckets {
		n += len(w.buckets[b])
		if set := w.occ[b>>6]&(1<<uint(b&63)) != 0; set != (len(w.buckets[b]) > 0) {
			t.Fatalf("seed %#x step %d: bucket %d holds %d entries but its bit is %v", seed, step, b, len(w.buckets[b]), set)
		}
	}
	if n != w.count {
		t.Fatalf("seed %#x step %d: count %d, buckets hold %d", seed, step, w.count, n)
	}
}

// TestWheelBitmapMatchesMultiset drives the wheel with random schedules,
// unschedules and advances (near instants, far laps and sparse tails) and
// checks every nextAfter against a plain multiset, and the occupancy
// bitmap against the buckets after every operation.
func TestWheelBitmapMatchesMultiset(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRand(seed)
		w := wheelFor(oneTask()) // delta = 10ms
		var ref []timeu.Time
		now := timeu.Time(0)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				// Mostly within a few windows, sometimes laps or a sparse
				// tail away.
				span := 8 * w.delta
				if rng.Intn(8) == 0 {
					span = 3 * wheelBuckets * w.delta
				}
				x := now + 1 + timeu.Time(rng.Int64n(int64(span)))
				w.schedule(x)
				ref = append(ref, x)
			case op < 7 && len(ref) > 0:
				i := rng.Intn(len(ref))
				if ref[i] > now {
					w.unschedule(ref[i])
				}
				ref[i] = ref[len(ref)-1]
				ref = ref[:len(ref)-1]
			default:
				want := timeu.Infinity
				for _, x := range ref {
					if x > now && x < want {
						want = x
					}
				}
				if got := w.nextAfter(now); got != want {
					t.Fatalf("seed %#x step %d: nextAfter(%v) = %v, want %v", seed, step, now, got, want)
				}
				if want != timeu.Infinity {
					now = want
				}
				// Instants at or before now are consumed by time passing.
				kept := ref[:0]
				for _, x := range ref {
					if x > now {
						kept = append(kept, x)
					}
				}
				ref = kept
			}
			checkOccupancy(t, w, seed, step)
		}
		w.reset()
		checkOccupancy(t, w, seed, -1)
	}
}
