package postpone

import (
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
)

func ms(v float64) timeu.Time { return timeu.FromMillis(v) }

// TestPaperFig5Postponement reproduces the paper's worked example:
// tau1=(10,10,3,2,3), tau2=(15,15,8,1,2) yield theta1 = 7, theta2 = 4, and
// theta2 far exceeds the promotion interval Y2 = 1.
func TestPaperFig5Postponement(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if an.Theta[0] != ms(7) {
		t.Errorf("theta1 = %v, want 7ms", an.Theta[0])
	}
	if an.Theta[1] != ms(4) {
		t.Errorf("theta2 = %v, want 4ms", an.Theta[1])
	}
	if !an.Exact[0] || !an.Exact[1] {
		t.Error("both levels must be exact (hyperperiod 30ms)")
	}
	// The paper notes Y2 = 1 for this set: R2 = 8 + 2*3 = 14, Y2 = 1.
	if an.Y[1] != ms(1) {
		t.Errorf("Y2 = %v, want 1ms", an.Y[1])
	}
	// Postponed releases per Fig. 5(b): tau1 backups at 7 and 17; tau2
	// backup at 4.
	r1 := an.PostponedReleases(s, 0, pattern.RPattern, ms(30))
	if len(r1) != 2 || r1[0] != ms(7) || r1[1] != ms(17) {
		t.Errorf("tau1 postponed releases = %v", r1)
	}
	r2 := an.PostponedReleases(s, 1, pattern.RPattern, ms(30))
	if len(r2) != 1 || r2[0] != ms(4) {
		t.Errorf("tau2 postponed releases = %v", r2)
	}
}

// The §III example set: tau1=(5,4,3,2,4), tau2=(10,10,3,1,2). Y1=Y2=1.
// Theta must be at least Y.
func TestThetaAtLeastPromotion(t *testing.T) {
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	for i := range an.Theta {
		if an.Theta[i] < an.Y[i] {
			t.Errorf("theta%d = %v below Y%d = %v", i+1, an.Theta[i], i+1, an.Y[i])
		}
	}
	// tau1: jobs 1,2 mandatory per 4. theta11: window [0,4), no HP.
	// IP = {4}; theta = 4 - 3 - 0 = 1. So theta1 = 1.
	if an.Theta[0] != ms(1) {
		t.Errorf("theta1 = %v, want 1ms", an.Theta[0])
	}
}

func TestHighestPriorityTheta(t *testing.T) {
	// For the highest-priority task theta = D - C always (no
	// interference, single inspecting point at the deadline).
	s := task.NewSet(task.New(0, 20, 12, 5, 1, 3))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if an.Theta[0] != ms(7) {
		t.Errorf("theta = %v, want 7ms", an.Theta[0])
	}
}

func TestFallbackOnHugeHyperperiod(t *testing.T) {
	// Coprime k*P products blow past a tiny cap -> Yi fallback.
	s := task.NewSet(task.New(0, 7, 7, 1, 2, 11), task.New(1, 13, 13, 1, 3, 17))
	an, err := Compute(s, Options{Pattern: pattern.RPattern, HyperperiodCap: ms(50)})
	if err != nil {
		t.Fatal(err)
	}
	if an.Exact[0] || an.Exact[1] {
		t.Error("expected fallback on both levels")
	}
	for i := range an.Theta {
		if an.Theta[i] != an.Y[i] {
			t.Errorf("fallback theta%d = %v, want Y = %v", i+1, an.Theta[i], an.Y[i])
		}
	}
}

func TestComputeRejectsInvalidSet(t *testing.T) {
	s := &task.Set{Tasks: []task.Task{{ID: 0, Period: -1}}}
	if _, err := Compute(s, Options{}); err == nil {
		t.Error("invalid set must error")
	}
}

func TestComputeUnschedulableFallsBackToZeroFloor(t *testing.T) {
	// Not fully schedulable (two tasks at 60% each) but R-pattern
	// schedulable with (1,2): alternating mandatory jobs fit. The
	// diverging task gets Y = 0 and theta must still be non-negative.
	s := task.NewSet(task.New(0, 10, 10, 6, 1, 2), task.New(1, 10, 10, 6, 1, 2))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if an.Y[1] != 0 {
		t.Errorf("Y2 = %v, want 0 (RTA diverges)", an.Y[1])
	}
	for i, th := range an.Theta {
		if th < 0 {
			t.Errorf("theta%d = %v negative", i+1, th)
		}
	}
}

// simulatePostponed reports whether every mandatory backup job meets its
// deadline under the postponed releases.
func simulatePostponed(s *task.Set, an *Analysis, horizon timeu.Time) bool {
	return len(an.Verify(s, pattern.RPattern, horizon)) == 0
}

// TestPostponedScheduleMeetsDeadlinesFig5 verifies the Fig. 5(b) claim:
// under the postponed releases all backup jobs still meet deadlines.
func TestPostponedScheduleMeetsDeadlinesFig5(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if !simulatePostponed(s, an, ms(300)) {
		t.Error("postponed schedule misses a deadline")
	}
}

// Property: for random small schedulable sets, the postponed mandatory
// schedule never misses a deadline (Theorem 1's backup half).
func TestPostponedScheduleProperty(t *testing.T) {
	f := func(p1, p2, p3, c1, c2, c3, k1, k2, k3 uint8) bool {
		mkTask := func(id int, pr, cr, kr uint8) task.Task {
			period := timeu.Time(pr%5+1) * 5 * timeu.Millisecond // 5..25ms
			k := int(kr%4) + 2
			m := k - 1 - int(kr%2)
			if m < 1 {
				m = 1
			}
			wcet := timeu.Time(cr%5+1) * period / 12
			if wcet < 1 {
				wcet = 1
			}
			return task.Task{ID: id, Period: period, Deadline: period, WCET: wcet, M: m, K: k}
		}
		s := task.NewSet(mkTask(0, p1, c1, k1), mkTask(1, p2, c2, k2), mkTask(2, p3, c3, k3))
		if s.Validate() != nil || !rta.SchedulableRTA(s) {
			return true
		}
		an, err := Compute(s, Options{Pattern: pattern.RPattern})
		if err != nil {
			return false
		}
		return simulatePostponed(s, an, 2*s.MKHyperperiod(timeu.Second))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerifyCleanOnFig5(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if v := an.Verify(s, pattern.RPattern, ms(3000)); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}

func TestVerifyCatchesExcessivePostponement(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: postpone tau2's backups by far too much.
	an.Theta[1] = ms(12) // release+12+8 = 20 > deadline 15
	v := an.Verify(s, pattern.RPattern, ms(300))
	if len(v) == 0 {
		t.Fatal("excessive theta not caught")
	}
	if v[0].TaskID != 1 {
		t.Errorf("violation attributed to tau%d, want tau2", v[0].TaskID+1)
	}
	if v[0].String() == "" {
		t.Error("violation must render")
	}
}

// TestThreeTaskWorkedExample pins a hand-computed three-task analysis.
// tau1=(8,8,2,1,2): mandatory job 1 per 2; theta1 = 8-2 = 6.
// tau2=(8,8,2,1,2): mandatory job 1 per 2 (r=0,d=8).
//
//	IP(J'21): d=8, r̃11=6 in (0,8). At 8: 8-(2+2)-0 = 4 (J'11: d=8>0, r̃=6<8).
//	At 6: 6-(2+0)-0 = 4 (r̃11=6 not < 6). theta21 = 4; hyperperiod level2
//	= 16; J23 at r=16 outside [0,16). theta2 = 4.
//
// tau3=(16,16,4,1,2): mandatory job 1 (r=0,d=16).
//
//	HP postponed: r̃11=6, r̃21=4 (within (0,16)); also r̃12? tau1 job 3 at
//	r=16 -> outside. IP = {16, 6, 4}.
//	At 16: 16-(4+2+2)-0 = 8. At 6: 6-(4+2[J'21 r̃=4<6])-0 = 0.
//	At 4: 4-(4+0)-0 = 0. theta3 = min over jobs {max{8,0,0}} = 8.
func TestThreeTaskWorkedExample(t *testing.T) {
	s := task.NewSet(
		task.New(0, 8, 8, 2, 1, 2),
		task.New(1, 8, 8, 2, 1, 2),
		task.New(2, 16, 16, 4, 1, 2),
	)
	an, err := Compute(s, Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if an.Theta[0] != ms(6) {
		t.Errorf("theta1 = %v, want 6ms", an.Theta[0])
	}
	if an.Theta[1] != ms(4) {
		t.Errorf("theta2 = %v, want 4ms", an.Theta[1])
	}
	if an.Theta[2] != ms(8) {
		t.Errorf("theta3 = %v, want 8ms", an.Theta[2])
	}
	if v := an.Verify(s, pattern.RPattern, ms(1600)); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}
