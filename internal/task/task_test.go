package task

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/timeu"
)

func validTask() Task { return New(0, 10, 10, 3, 2, 3) }

func TestValidateOK(t *testing.T) {
	if err := validTask().Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Task)
	}{
		{"zero period", func(x *Task) { x.Period = 0 }},
		{"negative period", func(x *Task) { x.Period = -1 }},
		{"zero wcet", func(x *Task) { x.WCET = 0 }},
		{"zero deadline", func(x *Task) { x.Deadline = 0 }},
		{"deadline > period", func(x *Task) { x.Deadline = x.Period + 1 }},
		{"wcet > deadline", func(x *Task) { x.WCET = x.Deadline + 1 }},
		{"k zero", func(x *Task) { x.K = 0 }},
		{"m zero", func(x *Task) { x.M = 0 }},
		{"m > k", func(x *Task) { x.M = x.K + 1 }},
		{"negative offset", func(x *Task) { x.Offset = -5 }},
	}
	for _, c := range cases {
		x := validTask()
		c.mut(&x)
		if err := x.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestUtilizations(t *testing.T) {
	x := New(0, 10, 10, 3, 2, 4)
	if got := x.Utilization(); got != 0.3 {
		t.Errorf("Utilization = %v, want 0.3", got)
	}
	if got := x.MKUtilization(); got != 0.15 {
		t.Errorf("MKUtilization = %v, want 0.15", got)
	}
}

func TestReleaseDeadline(t *testing.T) {
	x := New(0, 5, 4, 3, 2, 4)
	if x.Release(1) != 0 || x.Release(3) != timeu.FromMillis(10) {
		t.Error("Release wrong")
	}
	if x.AbsDeadline(1) != timeu.FromMillis(4) || x.AbsDeadline(2) != timeu.FromMillis(9) {
		t.Error("AbsDeadline wrong")
	}
	x.Offset = timeu.FromMillis(2)
	if x.Release(1) != timeu.FromMillis(2) {
		t.Error("offset Release wrong")
	}
}

func TestJobIndexAt(t *testing.T) {
	x := New(0, 5, 5, 1, 1, 2)
	cases := []struct {
		at   float64
		want int
	}{{0, 1}, {4.9, 1}, {5, 2}, {12, 3}}
	for _, c := range cases {
		if got := x.JobIndexAt(timeu.FromMillis(c.at)); got != c.want {
			t.Errorf("JobIndexAt(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	x.Offset = timeu.FromMillis(3)
	if got := x.JobIndexAt(timeu.FromMillis(1)); got != 0 {
		t.Errorf("before offset: got %d, want 0", got)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(New(7, 5, 4, 3, 2, 4), New(9, 10, 10, 3, 1, 2))
	if s.N() != 2 {
		t.Fatal("N wrong")
	}
	// NewSet must reassign IDs by position.
	if s.Tasks[0].ID != 0 || s.Tasks[1].ID != 1 {
		t.Error("IDs not reassigned")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	wantU := 3.0/5 + 3.0/10
	if got := s.Utilization(); math.Abs(got-wantU) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, wantU)
	}
	wantMK := 2.0 * 3 / (4 * 5) // 0.3
	wantMK += 1.0 * 3 / (2 * 10)
	if got := s.MKUtilization(); math.Abs(got-wantMK) > 1e-12 {
		t.Errorf("MKUtilization = %v, want %v", got, wantMK)
	}
}

func TestSetValidateEmpty(t *testing.T) {
	s := &Set{}
	if err := s.Validate(); err == nil {
		t.Error("empty set must be invalid")
	}
}

func TestHyperperiods(t *testing.T) {
	const cap = timeu.Time(1 << 50)
	s := NewSet(New(0, 5, 4, 3, 2, 4), New(1, 10, 10, 3, 1, 2))
	if got := s.Hyperperiod(cap); got != timeu.FromMillis(10) {
		t.Errorf("Hyperperiod = %v", got)
	}
	// k1*P1 = 20ms, k2*P2 = 20ms -> LCM 20ms.
	if got := s.MKHyperperiod(cap); got != timeu.FromMillis(20) {
		t.Errorf("MKHyperperiod = %v", got)
	}
	// Level 0 only: 20ms.
	if got := s.MKHyperperiodLevel(0, cap); got != timeu.FromMillis(20) {
		t.Errorf("MKHyperperiodLevel(0) = %v", got)
	}
}

func TestMKHyperperiodFig5(t *testing.T) {
	// Paper Fig. 5: tau1=(10,10,3,2,3), tau2=(15,15,8,1,2):
	// LCM(3*10, 2*15) = 30ms.
	s := NewSet(New(0, 10, 10, 3, 2, 3), New(1, 15, 15, 8, 1, 2))
	if got := s.MKHyperperiod(1 << 50); got != timeu.FromMillis(30) {
		t.Errorf("MKHyperperiod = %v, want 30ms", got)
	}
}

func TestStringFormats(t *testing.T) {
	x := New(0, 5, 4, 3, 2, 4)
	if got := x.String(); got != "tau1=(5ms,4ms,3ms,2,4)" {
		t.Errorf("Task.String() = %q", got)
	}
	x.Name = "video"
	if !strings.HasPrefix(x.String(), "video=") {
		t.Errorf("named Task.String() = %q", x.String())
	}
	s := NewSet(New(0, 5, 4, 3, 2, 4), New(1, 10, 10, 3, 1, 2))
	if lines := strings.Split(s.String(), "\n"); len(lines) != 2 {
		t.Errorf("Set.String() lines = %d", len(lines))
	}
}

func TestClone(t *testing.T) {
	s := NewSet(New(0, 5, 4, 3, 2, 4))
	c := s.Clone()
	c.Tasks[0].WCET = 1
	if s.Tasks[0].WCET == 1 {
		t.Error("Clone is shallow")
	}
}

func TestJobLifecycle(t *testing.T) {
	tk := New(2, 5, 4, 3, 2, 4)
	j := NewJob(tk, 3, Optional)
	if j.Release != timeu.FromMillis(10) || j.Deadline != timeu.FromMillis(14) {
		t.Errorf("job times wrong: %v", j)
	}
	if j.Name() != "J3,3" {
		t.Errorf("Name = %q", j.Name())
	}
	if j.Completed() {
		t.Error("fresh job reports completed")
	}
	j.Remaining = 0
	j.Done = true
	if !j.Completed() {
		t.Error("done job not completed")
	}
	j.Faulty = true
	if j.Completed() {
		t.Error("faulty job reports completed")
	}
}

func TestBackupPostponement(t *testing.T) {
	tk := New(0, 10, 10, 3, 2, 3)
	b := NewBackup(tk, 2, timeu.FromMillis(7))
	if b.Copy != Backup {
		t.Error("copy kind wrong")
	}
	if b.BaseRelease != timeu.FromMillis(10) {
		t.Errorf("BaseRelease = %v", b.BaseRelease)
	}
	if b.Release != timeu.FromMillis(17) {
		t.Errorf("Release = %v", b.Release)
	}
	if b.Deadline != timeu.FromMillis(20) {
		t.Errorf("Deadline = %v", b.Deadline)
	}
	if b.Name() != "J'1,2" {
		t.Errorf("Name = %q", b.Name())
	}
}

func TestExpired(t *testing.T) {
	tk := New(0, 10, 10, 3, 2, 3)
	j := NewJob(tk, 1, Mandatory)
	if j.Expired(timeu.FromMillis(7)) {
		t.Error("job with exactly enough time must not be expired")
	}
	if !j.Expired(timeu.FromMillis(7) + 1) {
		t.Error("job without enough time must be expired")
	}
}

func TestClassCopyStrings(t *testing.T) {
	if Mandatory.String() != "mandatory" || Optional.String() != "optional" {
		t.Error("Class strings")
	}
	if Main.String() != "main" || Backup.String() != "backup" {
		t.Error("Copy strings")
	}
	if Class(9).String() == "" {
		t.Error("unknown class must still render")
	}
}

// Property: for any valid task, releases are strictly increasing and
// deadlines stay within the next release (constrained deadlines).
func TestReleaseMonotone(t *testing.T) {
	f := func(p, c uint8, m, k uint8, j uint8) bool {
		period := timeu.Time(p%50+1) * timeu.Millisecond
		wcet := timeu.Time(c%10+1) * timeu.Millisecond / 4
		if wcet == 0 {
			wcet = 1
		}
		if wcet > period {
			wcet = period
		}
		kk := int(k%19) + 2
		mm := int(m)%(kk-1) + 1
		x := Task{ID: 0, Period: period, Deadline: period, WCET: wcet, M: mm, K: kk}
		if err := x.Validate(); err != nil {
			return false
		}
		idx := int(j%20) + 1
		return x.Release(idx+1)-x.Release(idx) == period &&
			x.AbsDeadline(idx) <= x.Release(idx+1) &&
			x.JobIndexAt(x.Release(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMKHyperperiodLevelAllocatesNothing pins the level LCM as one
// running fold: postpone.Compute calls it once per level of every set.
func TestMKHyperperiodLevelAllocatesNothing(t *testing.T) {
	const cap = timeu.Time(1 << 50)
	// k·P = 20, 20, 45 and 280 ms.
	s := NewSet(New(0, 5, 4, 1, 2, 4), New(1, 10, 10, 1, 1, 2), New(2, 15, 15, 1, 2, 3), New(3, 40, 40, 1, 3, 7))
	for level, want := range []float64{20, 20, 180, 2520} {
		if got := s.MKHyperperiodLevel(level, cap); got != timeu.FromMillis(want) {
			t.Errorf("MKHyperperiodLevel(%d) = %v, want %vms", level, got, want)
		}
	}
	if got := s.MKHyperperiodLevel(3, timeu.FromMillis(1000)); got != timeu.FromMillis(1000) {
		t.Errorf("MKHyperperiodLevel(3) under a 1 s cap = %v, want the cap", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.MKHyperperiodLevel(3, cap) }); allocs != 0 {
		t.Errorf("MKHyperperiodLevel allocates %v times per call, want 0", allocs)
	}
}
