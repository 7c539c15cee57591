package estimate

import (
	"errors"
	"strings"

	"repro"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timeu"
)

// Twin is the analytical twin: a closed-form model of the simulator
// built from the memoized offline products of the session's analysis
// LRU. One estimate costs a cache lookup plus O(n) arithmetic; the walk
// behind the products (rta.MandatoryProfile) is paid once per distinct
// set, like every other offline product.
//
// # Model
//
// Everything is derived from the mandatory-schedule profile over one
// (m,k)-hyperperiod Hm (busy time B, idle gaps, per-task mandatory job
// counts n_i and worst responses R̃i), linearly scaled to the requested
// horizon H by f = H/Hm — exact for the synchronous, offset-free sets
// this repository simulates, where the schedule repeats every Hm.
//
// Per-approach fault-free active time per processor over Hm:
//
//	ST        both processors execute the full mandatory schedule:
//	          A_0 = A_1 = B (the backup schedule mirrors the mains, so
//	          cancellation saves nearly nothing — the paper's point).
//	DP        mains alternate by task parity: A_p gets Σ n_i·Ci over
//	          tasks with i mod 2 = p; each backup on the other processor
//	          runs only the typical-case procrastination overlap
//	          clamp(Ci − Yi, 0, Ci) before the main's completion cancels
//	          it (with the mains split across two processors a main
//	          usually completes about one WCET after its start, so
//	          worst-case-response overlaps overshoot real cancellations
//	          by 4-5× across the corpus).
//	DP-bg     background backups start at release and are cancelled at
//	          the main's completion, so the overlap is min(R̂i, Ci) with
//	          R̂i a parity-aware busy-period bound: the main contends
//	          only with the mandatory demand of higher-priority tasks on
//	          its own processor.
//	Selective in dynamic steady state the demand executes as FD = 1
//	          optionals alternating across processors with no backups.
//	          The per-task execution fraction is NOT mi/ki: iterating
//	          the flexibility-degree automaton (skip while FD ≥ 2,
//	          execute at FD ≤ 1, every execution succeeding) over its
//	          deterministic orbit gives the exact steady-state fraction
//	          — e.g. (2,4) executes 2 of every 3 jobs, (1,2) every job.
//	Greedy    every job executes on the primary while the system keeps
//	          succeeding: A_0 = min(total demand, Hm), A_1 = 0; once the
//	          primary saturates, mandatory jobs (and their Yi-postponed
//	          backups) reappear on the spare.
//
// A permanent fault (At, proc) — drawn from the same RNG stream the
// simulator uses, so the realization matches the refining run exactly —
// splits the horizon: before At each processor runs at its fault-free
// rate A_p/Hm; after At the survivor runs the single-copy mandatory
// schedule at rate B/Hm and the dead processor contributes dead time.
//
// Idle time splits into sleep and idle by the DPD break-even rule
// applied to the profile's gap distribution: the fraction of gap time
// in gaps longer than T_be sleeps, the remainder idles. Transient
// faults (λ = 1e-6/ms of execution) perturb energy only through lost
// backup cancellations, a O(λ·Ci) relative effect far below the
// committed bounds; the twin ignores them.
//
// The schedulability and (m,k) verdicts are not estimates: they are the
// memoized Theorem-1 test itself, identical to what a simulation run's
// document reports. The twin answers only sets that pass it and refuses
// the rest with errUnschedulable, which serving maps to a 422.
type Twin struct {
	runner *repro.Runner
}

// NewTwin builds the twin around the given session, whose analysis LRU
// memoizes the twin's per-set products and the simulations' offline
// analyses alike.
func NewTwin(r *repro.Runner) *Twin { return &Twin{runner: r} }

// errUnschedulable refuses a twin estimate of a set whose mandatory jobs
// fail the Theorem-1 test. The closed forms model a schedule without
// backlog, and the profile walk beneath them runs to the end of the
// hyperperiod: on an unschedulable set a backlog can grow without bound,
// and every job the walk queues copies it. A schedulable set never
// backlogs, because Di ≤ Pi makes a backlog a miss, so the walk stays
// linear behind the check.
var errUnschedulable = errors.New("estimate: mandatory jobs are not schedulable under the static pattern, and the twin models only sets that are; refine with the simulator")

// modeled reports whether the twin's closed forms cover the approach.
// The switch mirrors activePerProc exactly: an approach absent from both
// must fail loudly, never fall through to a zero-active estimate.
func (t *Twin) modeled(a repro.Approach) bool {
	switch a {
	case repro.ST, repro.DP, repro.DPBackground, repro.Selective, repro.Greedy:
		return true
	}
	return false
}

// Estimate answers one query in closed form.
func (t *Twin) Estimate(req Request) (*Answer, error) {
	if !t.modeled(req.Approach) {
		// MKSS-DBP (and any future dynamic policy) schedules from the
		// realized k-sequences; the static-pattern profile underneath the
		// closed forms says nothing about it.
		return nil, &UnsupportedError{Policy: req.Approach.String()}
	}
	s := req.Set
	if err := s.Validate(); err != nil {
		return nil, err
	}
	H, err := repro.Horizon(s, req.HorizonMS)
	if err != nil {
		return nil, err
	}
	prods := t.runner.Analysis(s)
	if !prods.Schedulable() {
		return nil, errUnschedulable
	}
	prof := prods.MandatoryProfile()
	power := sim.DefaultPower()
	hMS := H.Millis()
	hmMS := prof.Horizon.Millis()
	if hmMS <= 0 {
		return nil, &rta.ErrUnschedulable{TaskID: 0, Detail: "empty hyperperiod"}
	}

	// Fault-free per-processor active time over one profile window.
	act := t.activePerProc(req.Approach, prods.Set(), prof, prods.PromotionTimes())

	// Fault realization: the same first draws the simulator makes.
	plan := fault.NewPlan(req.Scenario, H, stats.NewRand(req.Seed))

	// Compose per-processor active/dead time over the horizon.
	var activeMS, deadMS [sim.NumProcs]float64
	busyRate := prof.Busy.Millis() / hmMS
	for p := 0; p < sim.NumProcs; p++ {
		rate := act[p] / hmMS
		if pf := plan.Permanent; pf != nil {
			atMS := pf.At.Millis()
			if p == pf.Proc {
				activeMS[p] = rate * atMS
				deadMS[p] = hMS - atMS
			} else {
				// Survivor: fault-free rate before At, the single-copy
				// mandatory schedule after.
				activeMS[p] = rate*atMS + busyRate*(hMS-atMS)
			}
		} else {
			activeMS[p] = rate * hMS
		}
		if max := hMS - deadMS[p]; activeMS[p] > max {
			activeMS[p] = max
		}
	}

	// DPD split of the idle remainder, from the profile's gap
	// distribution.
	var gapMS, sleepableMS float64
	for _, g := range prof.Gaps {
		gapMS += g.Millis()
		if g > power.BreakEven {
			sleepableMS += g.Millis()
		}
	}
	sleepFrac := 0.0
	if gapMS > 0 {
		sleepFrac = sleepableMS / gapMS
	}

	var activeE, totalE float64
	for p := 0; p < sim.NumProcs; p++ {
		idleMS := hMS - activeMS[p] - deadMS[p]
		if idleMS < 0 {
			idleMS = 0
		}
		sleepMS := sleepFrac * idleMS
		activeE += activeMS[p] * power.Active
		totalE += activeMS[p]*power.Active + (idleMS-sleepMS)*power.Idle + sleepMS*power.Sleep
	}

	sched := prods.Schedulable()
	return &Answer{
		Policy:       req.Approach.String(),
		Horizon:      H,
		Schedulable:  sched,
		ActiveEnergy: activeE,
		TotalEnergy:  totalE,
		MKPredicted:  sched,
	}, nil
}

// activePerProc computes the per-approach fault-free active time (ms)
// of each processor over one profile window, per the model above.
func (t *Twin) activePerProc(a repro.Approach, s *repro.Set, prof rta.Profile, ys []timeu.Time) [sim.NumProcs]float64 {
	var act [sim.NumProcs]float64
	busyMS := prof.Busy.Millis()
	switch a {
	case repro.ST:
		act[sim.Primary] = busyMS
		act[sim.Spare] = busyMS
	case repro.DP, repro.DPBackground:
		for i := range s.Tasks {
			tk := &s.Tasks[i]
			n := float64(prof.Count[i])
			mp := i % sim.NumProcs
			act[mp] += n * tk.WCET.Millis()
			// Typical-case cancellation: with the mains split across two
			// processors a main usually completes about one WCET after it
			// starts, so a backup postponed by Yi runs ~max(0, Ci − Yi)
			// before the cancellation (not the worst-case-response overlap,
			// which overshoots the corpus by 4-5×). Background backups run
			// from release and are cancelled at the main's completion — the
			// parity-aware response bounds that window.
			overlap := tk.WCET - ys[i]
			if a == repro.DPBackground {
				overlap = parityResponse(s, i)
			}
			act[1-mp] += n * clampMS(overlap, tk.WCET)
		}
	case repro.Selective:
		// Steady-state optional demand, split evenly by alternation.
		var execMS float64
		for i := range s.Tasks {
			tk := &s.Tasks[i]
			releases := float64(timeu.CeilDiv(prof.Horizon, tk.Period))
			execMS += execFraction(tk.M, tk.K) * releases * tk.WCET.Millis()
		}
		act[sim.Primary] = execMS / 2
		act[sim.Spare] = execMS / 2
	case repro.Greedy:
		var demandMS float64
		for i := range s.Tasks {
			tk := &s.Tasks[i]
			releases := float64(timeu.CeilDiv(prof.Horizon, tk.Period))
			demandMS += releases * tk.WCET.Millis()
		}
		hmMS := prof.Horizon.Millis()
		if demandMS <= hmMS {
			act[sim.Primary] = demandMS
		} else {
			// Saturated primary: optionals expire, mandatory jobs (and
			// their Yi-postponed backups) reappear.
			act[sim.Primary] = hmMS
			for i := range s.Tasks {
				tk := &s.Tasks[i]
				act[sim.Spare] += float64(prof.Count[i]) *
					clampMS(prof.MaxResponse[i]-ys[i], tk.WCET)
			}
		}
	}
	return act
}

// clampMS clamps v to [0, hi] and returns milliseconds.
func clampMS(v, hi timeu.Time) float64 {
	if v < 0 {
		return 0
	}
	if v > hi {
		v = hi
	}
	return v.Millis()
}

// parityResponse bounds the worst response time of task i's DP main
// copy: a busy-period fixed point whose interference counts only the
// mandatory demand of higher-priority tasks hosted on the same processor
// (mains alternate by task parity), capped at the deadline.
func parityResponse(s *repro.Set, i int) timeu.Time {
	t := &s.Tasks[i]
	f := t.WCET
	for {
		next := t.WCET
		for j := 0; j < i; j++ {
			if j%sim.NumProcs != i%sim.NumProcs {
				continue
			}
			next += rta.MandatoryDemand(s.Tasks[j], f)
		}
		if next <= f {
			return f
		}
		if next > t.Deadline {
			return t.Deadline
		}
		f = next
	}
}

// execFraction iterates the flexibility-degree automaton of one (m,k)
// task under the selective policy's steady-state assumptions — skip
// while FD ≥ 2, execute at FD ≤ 1, every execution succeeds — until the
// deterministic orbit repeats, and returns the executed fraction over
// one cycle. The state space is the k-window of outcomes, so the loop
// terminates within 2^k + k steps; in practice orbits are a handful of
// states.
func execFraction(m, k int) float64 {
	h := pattern.NewHistory(m, k)
	type visit struct{ step, exec int }
	seen := make(map[string]visit, 16)
	step, exec := 0, 0
	for {
		key := historyKey(h)
		if v, ok := seen[key]; ok {
			return float64(exec-v.exec) / float64(step-v.step)
		}
		seen[key] = visit{step: step, exec: exec}
		e := h.FlexibilityDegree() <= 1
		h.Record(e)
		step++
		if e {
			exec++
		}
	}
}

// historyKey renders the automaton state — the k-window of outcomes,
// oldest to newest — as a map key.
func historyKey(h *pattern.History) string {
	var b strings.Builder
	b.Grow(h.K())
	for _, o := range h.Snapshot() {
		if o {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
