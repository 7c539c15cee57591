package rta

import (
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// The paper's §III example: both tasks' first jobs are mandatory, the
// R-pattern schedule over the (m,k)-hyperperiod (20ms) is known by hand.
func TestMandatoryProfilePaperExample(t *testing.T) {
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	p := MandatoryProfile(s, pattern.RPattern, 10*timeu.Second)
	if p.Horizon != ms(20) {
		t.Fatalf("horizon %v, want 20ms", p.Horizon)
	}
	// τ1: jobs 1,2 of every 4 mandatory → 2 per pattern period (20ms).
	// τ2: job 1 of every 2 mandatory → 1 per pattern period (20ms).
	if p.Count[0] != 2 || p.Count[1] != 1 {
		t.Errorf("counts %v, want [2 1]", p.Count)
	}
	if want := ms(2*3 + 1*3); p.Busy != want {
		t.Errorf("busy %v, want %v", p.Busy, want)
	}
	if !p.Schedulable {
		t.Error("paper set must be R-pattern schedulable")
	}
	// Busy + idle gaps tile the hyperperiod exactly.
	total := p.Busy
	for _, g := range p.Gaps {
		total += g
	}
	if total != p.Horizon {
		t.Errorf("busy+gaps = %v, want horizon %v", total, p.Horizon)
	}
	// τ1's first job runs [0,3): response 3ms. τ2's first job preempted
	// until 3, then [3,6) — but job 2 of τ1 releases at 5 and is
	// mandatory, so τ2 finishes after it: the walk records the truth.
	if p.MaxResponse[0] != ms(3) {
		t.Errorf("τ1 max response %v, want 3ms", p.MaxResponse[0])
	}
}

// Property: the recording walk and the boolean filter are the same
// schedule — identical verdicts, demand identical to the RBF at the
// horizon, and (for schedulable constrained-deadline sets) busy+gaps
// tiling the horizon.
func TestMandatoryProfileMatchesFilter(t *testing.T) {
	f := func(p1, p2, p3, c1, c2, c3, k1, k2, k3 uint8) bool {
		mkTask := func(id int, pr, cr, kr uint8) task.Task {
			period := timeu.Time(pr%5+1) * 5 * timeu.Millisecond
			k := int(kr%5) + 2
			m := int(cr)%(k-1) + 1
			wcet := timeu.Time(cr%6+1) * period / 8
			if wcet < 1 {
				wcet = 1
			}
			return task.Task{ID: id, Period: period, Deadline: period, WCET: wcet, M: m, K: k}
		}
		s := task.NewSet(mkTask(0, p1, c1, k1), mkTask(1, p2, c2, k2), mkTask(2, p3, c3, k3))
		if s.Validate() != nil {
			return true
		}
		const cap = 5 * timeu.Second
		prof := MandatoryProfile(s, pattern.RPattern, cap)
		if prof.Schedulable != SchedulableRPattern(s, pattern.RPattern, cap) {
			return false
		}
		var demand, count timeu.Time
		for i, t := range s.Tasks {
			demand += MandatoryDemand(t, prof.Horizon)
			count += timeu.Time(prof.Count[i]) * t.WCET
		}
		if prof.Busy != demand || count != demand {
			return false
		}
		// The tiling identity needs an exact hyperperiod: a horizon
		// saturated at the cap can cut through a busy interval, and the
		// walk lets released jobs drain past it.
		exact := true
		for _, t := range s.Tasks {
			if prof.Horizon%(timeu.Time(t.K)*t.Period) != 0 {
				exact = false
			}
		}
		if prof.Schedulable && exact {
			total := prof.Busy
			for _, g := range prof.Gaps {
				total += g
			}
			if total != prof.Horizon {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
