package rta

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

func TestMandatoryDemandBasics(t *testing.T) {
	// (2,3) task, P=10, C=3: mandatory jobs 1,2 of every 3.
	tk := task.New(0, 10, 10, 3, 2, 3)
	cases := []struct {
		atMS float64
		want float64 // ms of demand
	}{
		{0, 0},
		{0.5, 3},  // job 1 released at 0
		{10, 3},   // job 2 releases exactly at 10: [0,10) has 1 release
		{10.5, 6}, // jobs 1,2
		{20.5, 6}, // job 3 optional
		{30.5, 9}, // job 4 (next cycle) mandatory
		{60, 12},  // two full cycles [0,60): 2*2 jobs
	}
	for _, c := range cases {
		got := MandatoryDemand(tk, timeu.FromMillis(c.atMS))
		if got != timeu.FromMillis(c.want) {
			t.Errorf("demand(%vms) = %v, want %vms", c.atMS, got, c.want)
		}
	}
	// The product saturates instead of wrapping: two releases of a
	// 5e18 µs job are past the largest Time.
	huge := task.Task{Period: 5e18, Deadline: 5e18, WCET: 5e18, M: 1, K: 1}
	if got := MandatoryDemand(huge, 6e18); got != math.MaxInt64 {
		t.Errorf("saturating demand = %d, want %d", got, int64(math.MaxInt64))
	}
}

// The closed form must count what Eq. (1) marks mandatory, job by job,
// for 0 < m ≤ k (m == k is a hard task: every job counts).
func TestMandatoryDemandMatchesEnumeration(t *testing.T) {
	f := func(pMS, cQ, mr, kr uint8, xMS uint16) bool {
		period := timeu.Time(pMS%46+5) * timeu.Millisecond
		k := int(kr%19) + 2
		m := int(mr)%k + 1
		wcet := timeu.Time(cQ%10+1) * period / 12
		if wcet < 1 {
			wcet = 1
		}
		tk := task.Task{ID: 0, Period: period, Deadline: period, WCET: wcet, M: m, K: k}
		x := timeu.Time(xMS) * timeu.Millisecond / 4
		got := MandatoryDemand(tk, x)
		// Brute force.
		var want timeu.Time
		for j := 1; tk.Release(j) < x; j++ {
			if pattern.Mandatory(pattern.RPattern, j, m, k) {
				want += wcet
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMandatoryResponseTimeSimple(t *testing.T) {
	// Fig. 5 set: tau2's first backup-equivalent job: own demand 8,
	// higher-priority mandatory demand in [0,f): tau1 jobs 1 (0) and 2
	// (10): f = 8+3 = 11 -> includes release 10 -> f = 8+6 = 14 ->
	// converged (next release 20 > 14). R = 14.
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	r, ok := firstJobResponse(s, 1, s.Tasks[0].WCET+s.Tasks[1].WCET)
	if !ok {
		t.Fatal("job must be schedulable")
	}
	if r != timeu.FromMillis(14) {
		t.Errorf("response = %v, want 14ms", r)
	}
	if !criticalInstantFits(s) {
		t.Error("Fig. 5 set must pass the first-job test")
	}
}

func TestMandatoryResponseTimeUnschedulable(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 8, 1, 2), task.New(1, 10, 10, 8, 1, 2))
	if _, ok := firstJobResponse(s, 1, s.Tasks[1].WCET); ok {
		t.Error("overloaded job reported schedulable")
	}
	if criticalInstantFits(s) || SchedulableRPattern(s, pattern.RPattern, timeu.Second) {
		t.Error("overloaded set reported schedulable")
	}
}

func TestAnalyticAgreesOnPaperSets(t *testing.T) {
	sets := []*task.Set{
		task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2)),
		task.NewSet(task.New(0, 5, 2.5, 2, 2, 4), task.New(1, 4, 4, 2, 2, 4)),
		task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2)),
	}
	for i, s := range sets {
		an := firstJobsFit(s) && criticalInstantFits(s)
		si := walkFilter(s, pattern.RPattern, 10*timeu.Second)
		if an != si {
			t.Errorf("set %d: analytic %v != simulated %v", i, an, si)
		}
	}
}

// The first-job test never accepts a set the synchronous walk rejects
// (safety) and, being exact, never rejects one it accepts either.
func TestAnalyticNeverUnsafe(t *testing.T) {
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
		an := firstJobsFit(s) && criticalInstantFits(s)
		return an == walkFilter(s, pattern.RPattern, cap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// A mandatory utilization Σ mi·Ci/(ki·Pi) above 1 is never schedulable.
// The heavy sets must be rejected: the first fails the first-job sum
// (8 + 8 > 10), the second passes it (3 + 5 ≤ 10) and fails the fixed
// point (τ1's second job at 5 ms pushes τ2's first to 11 ms).
func TestMKUtilizationBound(t *testing.T) {
	const cap = 10 * timeu.Second
	ok := task.NewSet(task.New(0, 10, 10, 3, 2, 3))
	if u := ok.MKUtilization(); u > 1 || !SchedulableRPattern(ok, pattern.RPattern, cap) {
		t.Errorf("light set (U_mk %.2f) rejected", u)
	}
	for _, heavy := range []*task.Set{
		task.NewSet(task.New(0, 10, 10, 8, 3, 4), task.New(1, 10, 10, 8, 3, 4)),
		task.NewSet(task.New(0, 5, 5, 3, 1, 1), task.New(1, 10, 10, 5, 1, 1)),
	} {
		if u := heavy.MKUtilization(); u <= 1 || SchedulableRPattern(heavy, pattern.RPattern, cap) {
			t.Errorf("overloaded set (U_mk %.2f) accepted:\n%v", u, heavy)
		}
	}
}
