package sim_test

// External-package test: drives the engine through the real policies of
// internal/sim/policy and verifies, via internal/trace, that the same seed
// yields an identical execution trace whether the scratch is fresh or warm
// from previous runs, and that the traces and counters pass their
// invariants.

import (
	"context"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runTraced runs one traced simulation and checks its counters against
// their invariants; a failure names the set and the fault seed.
func runTraced(t *testing.T, s *task.Set, a policy.Approach, scenario fault.Scenario, seed uint64, scr *sim.Scratch) *sim.Result {
	t.Helper()
	const horizon = 100 * timeu.Millisecond
	res, err := experiment.Simulate(context.Background(), s, a, policy.Options{}, scenario, 0, seed, sim.Config{
		Horizon:     horizon,
		RecordTrace: true,
		Scratch:     scr,
	})
	if err != nil {
		t.Fatalf("Simulate(%v): %v", a, err)
	}
	if bad := res.Counters.CheckInvariants(horizon); len(bad) > 0 {
		t.Fatalf("set %v, %v %v, fault seed %d: counter invariants violated: %v", s, a, scenario, seed, bad)
	}
	return res
}

func TestTraceIdenticalFreshVsWarm(t *testing.T) {
	paperSet := task.NewSet(
		task.New(0, 5, 4, 3, 2, 4),
		task.New(1, 10, 10, 3, 1, 2),
	)
	gen := workload.NewGenerator(workload.DefaultConfig(), 7)
	sets := []*task.Set{paperSet}
	for len(sets) < 4 {
		if s, err := gen.Candidate(0.5); err == nil {
			sets = append(sets, s)
		}
	}
	scr := sim.NewScratch()
	for si, s := range sets {
		for _, a := range []policy.Approach{policy.ST, policy.DP, policy.Selective} {
			for _, scenario := range []fault.Scenario{fault.NoFault, fault.PermanentOnly} {
				seed := uint64(si)*100 + uint64(scenario)
				fresh := runTraced(t, s, a, scenario, seed, nil)
				warm := runTraced(t, s, a, scenario, seed, scr)
				g := trace.Gantt{}
				fg, wg := g.Render(fresh), g.Render(warm)
				if fg != wg {
					t.Fatalf("set %d %v %v: fresh and warm traces differ\nfresh:\n%s\nwarm:\n%s", si, a, scenario, fg, wg)
				}
				if bad := trace.Check(s, warm); len(bad) > 0 {
					t.Errorf("set %d %v %v: trace invariants violated: %v", si, a, scenario, bad)
				}
			}
		}
	}
}
