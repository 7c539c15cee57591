package rta

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

func ms(v float64) timeu.Time { return timeu.FromMillis(v) }

// The paper's §III example: tau1=(5,4,3,2,4), tau2=(10,10,3,1,2) gives
// Y1 = Y2 = 1.
func TestPromotionTimesPaperExample(t *testing.T) {
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	rs, err := ResponseTimes(s)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != ms(3) {
		t.Errorf("R1 = %v, want 3ms", rs[0])
	}
	if rs[1] != ms(9) {
		t.Errorf("R2 = %v, want 9ms", rs[1])
	}
	ys, err := PromotionTimes(s)
	if err != nil {
		t.Fatal(err)
	}
	if ys[0] != ms(1) || ys[1] != ms(1) {
		t.Errorf("Y = %v,%v, want 1ms,1ms", ys[0], ys[1])
	}
}

func TestResponseTimeConverges(t *testing.T) {
	// Classic example: C=(1,2,3), P=(4,8,16) -> R = 1, 3, 9... compute:
	// R3 = 3 + ceil(R/4)*1 + ceil(R/8)*2; R=3: 3+1+2=6; R=6: 3+2+2=7;
	// R=7: 3+2+2=7 converged.
	s := task.NewSet(task.New(0, 4, 4, 1, 1, 2), task.New(1, 8, 8, 2, 1, 2), task.New(2, 16, 16, 3, 1, 2))
	rs, err := ResponseTimes(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []timeu.Time{ms(1), ms(3), ms(7)}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("R%d = %v, want %v", i+1, rs[i], want[i])
		}
	}
}

func TestResponseTimeUnschedulable(t *testing.T) {
	// Two tasks each needing 60% of the processor.
	s := task.NewSet(task.New(0, 10, 10, 6, 1, 2), task.New(1, 10, 10, 6, 1, 2))
	_, err := ResponseTime(s, 1)
	if err == nil {
		t.Fatal("expected unschedulability")
	}
	var ue *ErrUnschedulable
	if !errors.As(err, &ue) {
		t.Fatalf("error type = %T", err)
	}
	if ue.TaskID != 1 {
		t.Errorf("TaskID = %d", ue.TaskID)
	}
	if SchedulableRTA(s) {
		t.Error("SchedulableRTA must be false")
	}
}

// TestOverflowSetUnschedulable: two tasks with P = D = 4.8e15 ms and
// C = 4.7e15 ms pass validation. τ2 cannot finish before 9.4e15 ms > D₂,
// but C₁ + C₂ passes the largest Time. Wrapped sums would make
// ResponseTime's fixed point oscillate forever (hanging /v1/analyze) and
// let the filter and the profile accept the set.
func TestOverflowSetUnschedulable(t *testing.T) {
	tk := task.New(0, 4.8e15, 4.8e15, 4.7e15, 1, 2)
	s := task.NewSet(tk, tk)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ResponseTime(s, 1)
		done <- err
	}()
	select {
	case err := <-done:
		var ue *ErrUnschedulable
		if !errors.As(err, &ue) || ue.TaskID != 1 {
			t.Errorf("ResponseTime(s, 1) error = %v, want *ErrUnschedulable for task 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ResponseTime(s, 1) did not return within 10 s")
	}
	const cap = 10 * timeu.Second
	if SchedulableRPattern(s, pattern.RPattern, cap) {
		t.Error("filter accepts the set")
	}
	if MandatoryProfile(s, pattern.RPattern, cap).Schedulable {
		t.Error("profile accepts the set")
	}
	// Past the prefilter, neither the walk's clock nor the fixed point
	// may wrap either.
	for _, kind := range []pattern.Kind{pattern.RPattern, pattern.EPattern} {
		if walkFilter(s, kind, cap) {
			t.Errorf("%v walk accepts the set", kind)
		}
	}
	if _, ok := firstJobResponse(s, 1, tk.WCET); ok {
		t.Error("first-job fixed point accepts the set")
	}
}

// drain collects every job the iterator streams.
func drain(s *task.Set, horizon timeu.Time, theta []timeu.Time) []job {
	var it mandIter
	it.init(s, pattern.RPattern, horizon, theta)
	var jobs []job
	for jb, ok := it.next(); ok; jb, ok = it.next() {
		jobs = append(jobs, jb)
	}
	return jobs
}

func TestMandatoryJobsEnumeration(t *testing.T) {
	// Fig. 5 set: tau1=(10,10,3,2,3) -> jobs 1,2 mandatory per 3;
	// tau2=(15,15,8,1,2) -> job 1 mandatory per 2. Horizon 30ms.
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	jobs := drain(s, ms(30), nil)
	// Expected: J11(r=0), J'21(r=0), J12(r=10). Sorted by release/priority.
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs: %+v", len(jobs), jobs)
	}
	if jobs[0].taskID != 0 || jobs[0].release != 0 {
		t.Errorf("jobs[0] = %+v", jobs[0])
	}
	if jobs[1].taskID != 1 || jobs[1].release != 0 {
		t.Errorf("jobs[1] = %+v", jobs[1])
	}
	if jobs[2].taskID != 0 || jobs[2].release != ms(10) || jobs[2].index != 2 {
		t.Errorf("jobs[2] = %+v", jobs[2])
	}
	// Fig. 5(b): θ = (7, 4) postpones the backups to 7, 17 (τ1) and 4
	// (τ2), so the merge reorders them while deadlines stay nominal.
	post := drain(s, ms(30), []timeu.Time{ms(7), ms(4)})
	want := []job{
		{taskID: 1, index: 1, release: ms(4), deadline: ms(15), left: ms(8)},
		{taskID: 0, index: 1, release: ms(7), deadline: ms(10), left: ms(3)},
		{taskID: 0, index: 2, release: ms(17), deadline: ms(20), left: ms(3)},
	}
	if len(post) != len(want) {
		t.Fatalf("postponed: got %+v, want %+v", post, want)
	}
	for i := range want {
		if post[i] != want[i] {
			t.Errorf("postponed[%d] = %+v, want %+v", i, post[i], want[i])
		}
	}
}

func TestSchedulableRPattern(t *testing.T) {
	// The Fig. 5 set is R-pattern schedulable (all backups meet deadlines
	// in Fig. 5(a)): total mandatory demand fits.
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	if !SchedulableRPattern(s, pattern.RPattern, ms(100000)) {
		t.Error("Fig. 5 set must be R-pattern schedulable")
	}
	// Note: this set is NOT fully schedulable (U = 0.3 + 8/15 = 0.83,
	// R2 = 8+3 = 11 < 15 fine actually). Construct an unschedulable
	// mandatory load: two tasks with heavy mandatory demand.
	bad := task.NewSet(task.New(0, 10, 10, 8, 1, 2), task.New(1, 10, 10, 8, 1, 2))
	if SchedulableRPattern(bad, pattern.RPattern, ms(100000)) {
		t.Error("overloaded mandatory pattern must fail")
	}
}

func TestSchedulableRPatternTight(t *testing.T) {
	// A set that is R-pattern schedulable but not fully schedulable:
	// three tasks with C=P/2 and (1,2) constraints: mandatory-only load
	// is 0.75 with alternating releases.
	s := task.NewSet(task.New(0, 10, 10, 5, 1, 2), task.New(1, 20, 20, 10, 1, 2))
	if SchedulableRTA(s) {
		t.Skip("set unexpectedly fully schedulable; test premise broken")
	}
	if !SchedulableRPattern(s, pattern.RPattern, ms(100000)) {
		t.Error("mandatory-only load must be schedulable")
	}
}

func TestSchedulableRPatternEmptyHorizon(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3))
	if !SchedulableRPattern(s, pattern.RPattern, ms(100000)) {
		t.Error("single light task must pass")
	}
}

// Property: response times are monotone in WCET and at least Ci.
func TestResponseTimeProperties(t *testing.T) {
	f := func(c1, c2 uint8) bool {
		w1 := timeu.Time(c1%4) + 1
		w2 := timeu.Time(c2%8) + 1
		s := task.NewSet(
			task.Task{ID: 0, Period: 10, Deadline: 10, WCET: w1, M: 1, K: 2},
			task.Task{ID: 1, Period: 40, Deadline: 40, WCET: w2, M: 1, K: 2},
		)
		rs, err := ResponseTimes(s)
		if err != nil {
			return true // unschedulable is acceptable here
		}
		if rs[0] != w1 {
			return false
		}
		return rs[1] >= w2 && rs[1] >= rs[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a set that passes full RTA always passes the R-pattern test
// (mandatory jobs are a subset of all jobs).
func TestRTAImpliesRPattern(t *testing.T) {
	f := func(c1, c2, c3 uint8, k1, k2, k3 uint8) bool {
		mk := func(kr uint8) (int, int) {
			k := int(kr%5) + 2
			return k - 1, k
		}
		m1, kk1 := mk(k1)
		m2, kk2 := mk(k2)
		m3, kk3 := mk(k3)
		s := task.NewSet(
			task.Task{ID: 0, Period: 5000, Deadline: 5000, WCET: timeu.Time(c1%15)*100 + 100, M: m1, K: kk1},
			task.Task{ID: 1, Period: 8000, Deadline: 8000, WCET: timeu.Time(c2%20)*100 + 100, M: m2, K: kk2},
			task.Task{ID: 2, Period: 20000, Deadline: 20000, WCET: timeu.Time(c3%40)*100 + 100, M: m3, K: kk3},
		)
		if !SchedulableRTA(s) {
			return true
		}
		return SchedulableRPattern(s, pattern.RPattern, timeu.Time(10_000_000))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
