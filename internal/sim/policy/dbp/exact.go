package dbp

import (
	"context"
	"errors"

	"repro/internal/fault"
	"repro/internal/postpone"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
)

// maxHyperperiods bounds Exact's run when no cycle closes earlier. The
// reachable k-window states of real task sets are a tiny fraction of the
// 2^Σki worst case; across the randomized corpus cycles close within a
// handful of hyperperiods.
const maxHyperperiods = 64

// Verdict is the outcome of Exact.
type Verdict struct {
	// Schedulable reports that no task violates its (m,k) constraint —
	// ever, when Exact; within the budget otherwise.
	Schedulable bool
	// ViolationTask is the task whose window broke first, or -1. When
	// several windows break at the same instant, it is the lowest task
	// ID among them.
	ViolationTask int
	// ViolationIndex is the 1-based job index whose outcome broke the
	// window, or 0.
	ViolationIndex int
	// Transient and Cycle describe the reached orbit in hyperperiods:
	// the run enters a cycle of length Cycle after Transient boundary
	// states. Zero when no cycle closed (violation found first, or the
	// verdict is inexact).
	Transient, Cycle int
	// Exact reports whether the verdict is a proof (a violation was
	// found, or a violation-free cycle closed) rather than a
	// bounded-horizon check (saturated hyperperiod, nonzero offsets, or
	// exhausted budget).
	Exact bool
}

// Exact is Goossens' exact schedulability test for DBP (arXiv:0805.0200),
// extended to the paper's two-processor standby-sparing arrangement. It
// decides whether MKSS-DBP, built from opts as for any run (θ comes from
// its offline analysis), keeps every (m,k) constraint of s without
// faults when task i's window starts from init[i]: outcomes oldest to
// newest, recorded onto the fresh all-effective window, so a nil row (or
// a nil init) is the fresh start of every other run.
//
// The schedule is one fault-free engine run, sampled at hyperperiod
// boundaries; the state is the concatenation of the k-windows. The run
// is deterministic and the state space finite (∏ 2^ki), so the states
// must eventually repeat: if no window broke before, none ever will, and
// the verdict is exact. As Goossens observed, it depends on the initial
// k-sequences, not just the task parameters, which is what `mkablate
// -ksweep` measures. Boundary states are comparable only with zero
// offsets and an unsaturated hyperperiod (capped at
// postpone.DefaultHyperperiodCap), where every job released in
// [nH, (n+1)H) settles by (n+1)H; otherwise, or when no state repeats
// within maxHyperperiods, the verdict is a bounded-horizon check.
func Exact(s *task.Set, opts policy.Options, init [][]bool) (Verdict, error) {
	h := s.Hyperperiod(postpone.DefaultHyperperiodCap)
	x := &exactPolicy{
		dbpPolicy: dbpPolicy{opts: opts},
		init:      init,
		h:         h,
		limit:     maxHyperperiods * h,
		seen:      make(map[string]int),
	}
	// The horizon leaves room for the longest deadline: the engine
	// releases only jobs that settle within it, and every job released
	// by the limit must exist, those at the limit included, whose first
	// release samples the last boundary.
	horizon := x.limit
	for _, t := range s.Tasks {
		if t.Offset != 0 || h%t.Period != 0 {
			x.boundary = timeu.Infinity
		}
		horizon = max(horizon, x.limit+t.Deadline)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x.stop = cancel
	eng, err := sim.New(s, x, sim.Config{Horizon: horizon, Faults: fault.NoFaults()})
	if err != nil {
		return Verdict{}, err
	}
	if _, err := eng.RunContext(ctx); err != nil && !(x.v.Exact && errors.Is(err, context.Canceled)) {
		return Verdict{}, err
	}
	if !x.v.Exact {
		// Everything checked passed, but the verdict is not a proof.
		return Verdict{Schedulable: true, ViolationTask: -1}, nil
	}
	return x.v, nil
}

// exactPolicy is MKSS-DBP with three hooks that read Exact's verdict off
// the run: Init seeds the windows, Release samples them at each
// boundary, and OnSettled catches the first window to break.
type exactPolicy struct {
	dbpPolicy
	init [][]bool
	// h is the hyperperiod, limit the end of the budget (no settlement
	// after it counts) and boundary the next instant n·h to sample, or
	// timeu.Infinity when boundary states are not comparable.
	h, limit, boundary timeu.Time
	seen               map[string]int // sampled state → first boundary
	key                []byte
	// v is the verdict once v.Exact is set: both decisions are proofs.
	// brokeAt is the instant a window broke; stop ends the run.
	v       Verdict
	brokeAt timeu.Time
	stop    context.CancelFunc
}

func (x *exactPolicy) Init(e *sim.Engine) error {
	if err := x.dbpPolicy.Init(e); err != nil {
		return err
	}
	for i := 0; i < len(x.hist) && i < len(x.init); i++ {
		for _, eff := range x.init[i] {
			x.hist[i].Record(eff)
		}
	}
	return nil
}

// Release samples the windows at the first release of each boundary:
// the engine settles completions and deadlines before releases, so the
// hyperperiod before has settled.
func (x *exactPolicy) Release(e *sim.Engine, t *task.Task, index int) {
	if e.Now() == x.boundary && !x.v.Exact {
		x.key = x.key[:0]
		for _, h := range x.hist {
			for _, eff := range h.Snapshot() {
				c := byte('0')
				if eff {
					c = '1'
				}
				x.key = append(x.key, c)
			}
		}
		n := int(x.boundary / x.h)
		if at, ok := x.seen[string(x.key)]; ok {
			x.v = Verdict{Schedulable: true, ViolationTask: -1, Transient: at, Cycle: n - at, Exact: true}
			x.stop()
		} else {
			x.seen[string(x.key)] = n
		}
		x.boundary += x.h
	}
	x.dbpPolicy.Release(e, t, index)
}

func (x *exactPolicy) OnSettled(e *sim.Engine, taskID, index int, effective bool) {
	x.dbpPolicy.OnSettled(e, taskID, index, effective)
	if effective || !x.hist[taskID].Violated() {
		return
	}
	switch now := e.Now(); {
	case !x.v.Exact && now <= x.limit:
		// A broken window is an exact refutation regardless of cycles.
		x.v = Verdict{ViolationTask: taskID, ViolationIndex: index, Exact: true}
		x.brokeAt = now
		x.stop()
	case now == x.brokeAt && taskID < x.v.ViolationTask:
		// Windows that break at one instant settle in the engine's
		// order; the verdict names the lowest task ID.
		x.v.ViolationTask, x.v.ViolationIndex = taskID, index
	}
}
