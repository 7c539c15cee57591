package dbp

import (
	"strings"

	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/task"
	"repro/internal/timeu"
)

// walkExact is the reference Exact is checked against: the same exact
// test as a hand-written deterministic fault-free walk of the DBP
// schedule, sampled at hyperperiod boundaries like Exact's engine run.
//
// The walk is a deliberate mirror of the engine running the MKSS-DBP
// policy with no faults injected: the same same-instant ordering
// (completions, then deadlines, then releases, then dispatch), the same
// distance rule (FlexibilityDegree + 1 at release), the same promoted
// distance-1 tier running as main+θ-postponed backup pairs, and the same
// rule that an optional copy unable to finish by its deadline is never
// dispatched. It shares no code with the engine, so an agreement is
// evidence about both.

// walkConfig parameterizes walkExact.
type walkConfig struct {
	// Theta postpones task i's backup copies by Theta[i] (Eq. 3), as the
	// MKSS-DBP policy does. Nil runs without backup copies — plain
	// uniprocessor DBP, Goossens' original setting.
	Theta []timeu.Time
	// Init seeds task i's outcome window with Init[i], oldest to newest,
	// recorded onto an all-effective window (so a row shorter than ki
	// leaves the oldest positions effective). Nil rows (or a nil slice)
	// mean the all-effective fresh start the simulator uses.
	Init [][]bool
	// Cap saturates the hyperperiod (see task.Set.Hyperperiod); zero
	// means postpone.DefaultHyperperiodCap. A saturated hyperperiod
	// disables cycle detection: the verdict degrades to a bounded-horizon
	// check.
	Cap timeu.Time
	// MaxHyperperiods bounds the walk when no cycle closes earlier; zero
	// means maxHyperperiods.
	MaxHyperperiods int
}

// dbpJob is one job copy inside the walk.
type dbpJob struct {
	taskID, index  int
	backup         bool
	mandatory      bool
	dist           int
	release        timeu.Time
	deadline       timeu.Time
	remaining      timeu.Time
	done, canceled bool
}

// dbpPair tracks settlement of one logical job.
type dbpPair struct {
	taskID, index int
	dl            timeu.Time
	copies        [2]*dbpJob
	n             int
	settled       bool
}

// dbpWalk is the mutable state of one exact-test run.
type dbpWalk struct {
	s       *task.Set
	theta   []timeu.Time
	hist    []*pattern.History
	nextIdx []int // next release index per task, 1-based

	now   timeu.Time
	live  [2][]*dbpJob
	cur   [2]*dbpJob
	open  []*dbpPair
	pairs map[[2]int]*dbpPair

	violated  bool
	violTask  int
	violIndex int
}

// walkExact runs the exact DBP schedulability test as a walk. See the
// comment above for semantics.
func walkExact(s *task.Set, cfg walkConfig) Verdict {
	if cfg.Cap <= 0 {
		cfg.Cap = postpone.DefaultHyperperiodCap
	}
	if cfg.MaxHyperperiods <= 0 {
		cfg.MaxHyperperiods = maxHyperperiods
	}
	h := s.Hyperperiod(cfg.Cap)
	verdict := Verdict{ViolationTask: -1}
	if h <= 0 {
		return verdict
	}
	// Cycle detection needs boundary states to be comparable: every job
	// released in [nH, (n+1)H) must settle by (n+1)H, which holds exactly
	// for zero offsets with constrained deadlines and an unsaturated
	// hyperperiod (each period divides h).
	cyclic := true
	for _, t := range s.Tasks {
		if t.Offset != 0 || h%t.Period != 0 {
			cyclic = false
			break
		}
	}

	w := &dbpWalk{
		s:        s,
		theta:    cfg.Theta,
		hist:     make([]*pattern.History, s.N()),
		nextIdx:  make([]int, s.N()),
		pairs:    make(map[[2]int]*dbpPair),
		violTask: -1,
	}
	for i, t := range s.Tasks {
		hi := pattern.NewHistory(t.M, t.K)
		if cfg.Init != nil && i < len(cfg.Init) {
			for _, eff := range cfg.Init[i] {
				hi.Record(eff)
			}
		}
		w.hist[i] = hi
		w.nextIdx[i] = 1
	}

	seen := map[string]int{w.stateKey(): 0}
	for n := 1; n <= cfg.MaxHyperperiods; n++ {
		if !w.runHyperperiod(timeu.Time(n) * h) {
			// A window broke mid-hyperperiod: the verdict is an exact
			// refutation regardless of cycles.
			verdict.Schedulable = false
			verdict.ViolationTask = w.violTask
			verdict.ViolationIndex = w.violIndex
			verdict.Exact = true
			return verdict
		}
		if !cyclic {
			continue
		}
		key := w.stateKey()
		if at, ok := seen[key]; ok {
			verdict.Schedulable = true
			verdict.Transient = at
			verdict.Cycle = n - at
			verdict.Exact = true
			return verdict
		}
		seen[key] = n
	}
	// Budget exhausted (or non-cyclic set): everything checked so far
	// passed, but the verdict is not a proof.
	verdict.Schedulable = true
	return verdict
}

// stateKey renders the concatenated k-windows, the Goossens state.
func (w *dbpWalk) stateKey() string {
	var b strings.Builder
	for _, h := range w.hist {
		b.Grow(h.K() + 1)
		for _, eff := range h.Snapshot() {
			if eff {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('|')
	}
	return b.String()
}

// runHyperperiod advances the walk to the boundary instant `until`,
// processing the boundary's completions and deadlines but not its
// releases (they belong to the next hyperperiod). Returns false as soon
// as a window breaks.
func (w *dbpWalk) runHyperperiod(until timeu.Time) bool {
	for {
		w.completions()
		w.deadlines()
		if w.violated {
			return false
		}
		if w.now >= until {
			return true
		}
		w.releases()
		w.dispatch()
		next := w.nextEvent(until)
		w.advance(next)
	}
}

// completions settles pairs whose running copy finished. Fault-free walk:
// every completion is effective and cancels the sibling copy.
func (w *dbpWalk) completions() {
	for p := 0; p < 2; p++ {
		j := w.cur[p]
		if j == nil || j.remaining > 0 {
			continue
		}
		w.cur[p] = nil
		j.done = true
		w.removeLive(p, j)
		pair := w.pairs[[2]int{j.taskID, j.index}]
		if pair.settled {
			continue
		}
		pair.settled = true
		w.dropOpen(pair)
		for _, c := range pair.copies[:pair.n] {
			if c == j || c.done || c.canceled {
				continue
			}
			c.canceled = true
			for q := 0; q < 2; q++ {
				if w.cur[q] == c {
					w.cur[q] = nil
				}
				w.removeLive(q, c)
			}
		}
		w.record(j.taskID, j.index, true)
	}
}

// deadlines settles every open pair whose deadline has arrived as a miss.
func (w *dbpWalk) deadlines() {
	for i := 0; i < len(w.open); {
		pair := w.open[i]
		if pair.dl > w.now {
			i++
			continue
		}
		pair.settled = true
		w.dropOpen(pair) // swaps the tail into position i; re-examine it
		for _, c := range pair.copies[:pair.n] {
			if c.done || c.canceled {
				continue
			}
			c.canceled = true
			for q := 0; q < 2; q++ {
				if w.cur[q] == c {
					w.cur[q] = nil
				}
				w.removeLive(q, c)
			}
		}
		w.record(pair.taskID, pair.index, false)
	}
}

// record mirrors the engine's settlement notification: the outcome enters
// the task's window, and a broken window ends the walk. Every window that
// breaks does so in the pass that ends the walk, so they all break at one
// instant; the verdict names the lowest task ID among them.
func (w *dbpWalk) record(taskID, index int, effective bool) {
	w.hist[taskID].Record(effective)
	if !effective && w.hist[taskID].Violated() && (!w.violated || taskID < w.violTask) {
		w.violated = true
		w.violTask = taskID
		w.violIndex = index
	}
}

// releases classifies and admits every job releasing now, in task order
// (the engine's same-instant batching).
func (w *dbpWalk) releases() {
	for i := range w.s.Tasks {
		t := w.s.Tasks[i]
		for t.Release(w.nextIdx[i]) == w.now {
			idx := w.nextIdx[i]
			w.nextIdx[i]++
			dist := w.hist[i].FlexibilityDegree() + 1
			r := w.now
			dl := t.AbsDeadline(idx)
			pair := &dbpPair{taskID: i, index: idx, dl: dl}
			w.pairs[[2]int{i, idx}] = pair
			w.open = append(w.open, pair)
			main := &dbpJob{
				taskID: i, index: idx, dist: dist, mandatory: dist == 1,
				release: r, deadline: dl, remaining: t.WCET,
			}
			pair.copies[pair.n] = main
			pair.n++
			w.live[0] = append(w.live[0], main)
			if dist == 1 && w.theta != nil {
				backup := &dbpJob{
					taskID: i, index: idx, backup: true, dist: dist, mandatory: true,
					release: r + w.theta[i], deadline: dl, remaining: t.WCET,
				}
				pair.copies[pair.n] = backup
				pair.n++
				w.live[1] = append(w.live[1], backup)
			}
		}
	}
}

// less mirrors the MKSS-DBP policy's Less plus FP tie-breaks.
func dbpLess(a, b *dbpJob) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.mandatory != b.mandatory {
		return a.mandatory
	}
	if a.taskID != b.taskID {
		return a.taskID < b.taskID
	}
	if a.index != b.index {
		return a.index < b.index
	}
	return !a.backup && b.backup
}

// dispatch picks, per processor, the best eligible runnable copy.
func (w *dbpWalk) dispatch() {
	for p := 0; p < 2; p++ {
		var best *dbpJob
		for _, j := range w.live[p] {
			if j.done || j.canceled || j.release > w.now {
				continue
			}
			// An optional copy that can no longer finish is never
			// dispatched (it settles as a miss at its deadline).
			if !j.mandatory && w.now+j.remaining > j.deadline {
				continue
			}
			if best == nil || dbpLess(j, best) {
				best = j
			}
		}
		w.cur[p] = best
	}
}

// nextEvent returns the next instant anything can change, capped at the
// hyperperiod boundary.
func (w *dbpWalk) nextEvent(until timeu.Time) timeu.Time {
	next := until
	for i := range w.s.Tasks {
		if r := w.s.Tasks[i].Release(w.nextIdx[i]); r < next {
			next = r
		}
	}
	for p := 0; p < 2; p++ {
		if j := w.cur[p]; j != nil {
			if t := w.now + j.remaining; t < next {
				next = t
			}
		}
		// Postponed backups (and any copy not yet eligible) activate at
		// their revised release.
		for _, j := range w.live[p] {
			if !j.done && !j.canceled && j.release > w.now && j.release < next {
				next = j.release
			}
		}
	}
	for _, pair := range w.open {
		if pair.dl < next {
			next = pair.dl
		}
	}
	return next
}

// advance moves time forward, burning demand on the running copies.
func (w *dbpWalk) advance(t timeu.Time) {
	delta := t - w.now
	for p := 0; p < 2; p++ {
		if j := w.cur[p]; j != nil {
			j.remaining -= delta
		}
	}
	w.now = t
}

func (w *dbpWalk) removeLive(p int, j *dbpJob) {
	l := w.live[p]
	for i, x := range l {
		if x == j {
			l[i] = l[len(l)-1]
			w.live[p] = l[:len(l)-1]
			return
		}
	}
}

func (w *dbpWalk) dropOpen(pair *dbpPair) {
	for i, x := range w.open {
		if x == pair {
			w.open[i] = w.open[len(w.open)-1]
			w.open = w.open[:len(w.open)-1]
			return
		}
	}
}
