// Package task defines the periodic task model of the paper (§II-A): a
// system of n independent periodic tasks T = {τ1..τn} scheduled under
// fixed priorities, each characterized by (Pi, Di, Ci, mi, ki) — period,
// relative deadline (≤ period), worst-case execution time, and the
// (m,k)-firm constraint requiring that at least mi of any ki consecutive
// jobs complete successfully.
//
// Tasks are index-priority ordered: a task with a smaller index has higher
// priority (τj has lower priority than τi when j > i), matching the
// paper's convention.
package task

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/timeu"
)

// Task is one periodic task. Fields mirror the 5-tuple of §II-A.
type Task struct {
	// ID is the task's index in its set, starting at 0. Priority is the
	// inverse of ID: task 0 has the highest priority.
	ID int
	// Name is an optional human-readable label ("tau1"); generated sets
	// leave it empty and String() synthesizes one.
	Name string
	// Period Pi between consecutive releases.
	Period timeu.Time
	// Deadline Di relative to release, with Di ≤ Pi (constrained deadline).
	Deadline timeu.Time
	// WCET Ci, the worst-case execution time of every job.
	WCET timeu.Time
	// M and K encode the (m,k)-constraint. The paper requires 0 < M < K;
	// we additionally allow M == K to model hard real-time tasks that
	// tolerate no misses (the workload generator of §V always keeps
	// M < K).
	M, K int
	// Offset is the release time of the first job. The paper's model is
	// synchronous (offset 0); the field exists so tests can explore
	// asynchronous releases.
	Offset timeu.Time
}

// New constructs a task from millisecond-valued parameters. It is the
// convenience constructor used by examples and tests; generated workloads
// build Task values directly in ticks.
func New(id int, periodMS, deadlineMS, wcetMS float64, m, k int) Task {
	return Task{
		ID:       id,
		Period:   timeu.FromMillis(periodMS),
		Deadline: timeu.FromMillis(deadlineMS),
		WCET:     timeu.FromMillis(wcetMS),
		M:        m,
		K:        k,
	}
}

// Validate reports whether the task parameters are internally consistent.
func (t Task) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %s: period %v must be positive", t.Label(), t.Period)
	case t.WCET <= 0:
		return fmt.Errorf("task %s: WCET %v must be positive", t.Label(), t.WCET)
	case t.Deadline <= 0:
		return fmt.Errorf("task %s: deadline %v must be positive", t.Label(), t.Deadline)
	case t.Deadline > t.Period:
		return fmt.Errorf("task %s: deadline %v exceeds period %v (constrained-deadline model)", t.Label(), t.Deadline, t.Period)
	case t.WCET > t.Deadline:
		return fmt.Errorf("task %s: WCET %v exceeds deadline %v", t.Label(), t.WCET, t.Deadline)
	case t.K < 1:
		return fmt.Errorf("task %s: k = %d must be at least 1", t.Label(), t.K)
	case t.M < 1 || t.M > t.K:
		return fmt.Errorf("task %s: require 0 < m <= k, got (m,k) = (%d,%d)", t.Label(), t.M, t.K)
	case t.Offset < 0:
		return fmt.Errorf("task %s: negative offset %v", t.Label(), t.Offset)
	}
	return nil
}

// Label returns the task's display name.
func (t Task) Label() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("tau%d", t.ID+1)
}

// String renders the 5-tuple the way the paper writes it, e.g.
// "tau1=(5ms,4ms,3ms,2,4)".
func (t Task) String() string {
	return fmt.Sprintf("%s=(%v,%v,%v,%d,%d)", t.Label(), t.Period, t.Deadline, t.WCET, t.M, t.K)
}

// Utilization is the classical utilization Ci/Pi.
func (t Task) Utilization() float64 {
	return float64(t.WCET) / float64(t.Period)
}

// MKUtilization is the (m,k)-utilization mi·Ci/(ki·Pi), the load of the
// task if exactly the mandatory fraction of its jobs executes. Figure 6's
// x-axis sweeps the sum of this quantity over the task set.
func (t Task) MKUtilization() float64 {
	return float64(t.M) * float64(t.WCET) / (float64(t.K) * float64(t.Period))
}

// Release returns the release time of the j-th job (j counting from 1, as
// in the paper's J_ij notation).
func (t Task) Release(j int) timeu.Time {
	return t.Offset + timeu.Time(j-1)*t.Period
}

// AbsDeadline returns the absolute deadline d_ij of the j-th job.
func (t Task) AbsDeadline(j int) timeu.Time {
	return t.Release(j) + t.Deadline
}

// JobIndexAt returns the index (1-based) of the job whose period window
// contains time x, i.e. the latest j with Release(j) <= x.
func (t Task) JobIndexAt(x timeu.Time) int {
	if x < t.Offset {
		return 0
	}
	return int((x-t.Offset)/t.Period) + 1
}

// Set is an ordered task set; index order is priority order.
type Set struct {
	Tasks []Task
}

// NewSet builds a set from tasks, assigning IDs by position. It copies the
// slice so callers may reuse theirs.
func NewSet(tasks ...Task) *Set {
	ts := make([]Task, len(tasks))
	copy(ts, tasks)
	for i := range ts {
		ts[i].ID = i
	}
	return &Set{Tasks: ts}
}

// Validate checks every task and the set-level invariants.
func (s *Set) Validate() error {
	if len(s.Tasks) == 0 {
		return errors.New("task set: empty")
	}
	for i, t := range s.Tasks {
		if t.ID != i {
			return fmt.Errorf("task set: task at position %d has ID %d", i, t.ID)
		}
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// N returns the number of tasks.
func (s *Set) N() int { return len(s.Tasks) }

// Utilization is the total classical utilization Σ Ci/Pi.
func (s *Set) Utilization() float64 {
	var u float64
	for _, t := range s.Tasks {
		u += t.Utilization()
	}
	return u
}

// MKUtilization is the total (m,k)-utilization Σ mi·Ci/(ki·Pi) — the
// paper's x-axis quantity.
func (s *Set) MKUtilization() float64 {
	var u float64
	for _, t := range s.Tasks {
		u += t.MKUtilization()
	}
	return u
}

// Hyperperiod returns LCM of the periods, saturating at cap.
func (s *Set) Hyperperiod(cap timeu.Time) timeu.Time {
	ps := make([]timeu.Time, len(s.Tasks))
	for i, t := range s.Tasks {
		ps[i] = t.Period
	}
	return timeu.LCMAll(ps, cap)
}

// MKHyperperiod returns LCM of ki·Pi over the whole set — the horizon over
// which the static R-pattern repeats — saturating at cap. Equation (5)
// uses the level-i prefix version, see MKHyperperiodLevel.
func (s *Set) MKHyperperiod(cap timeu.Time) timeu.Time {
	return s.MKHyperperiodLevel(len(s.Tasks)-1, cap)
}

// MKHyperperiodLevel returns LCM_{q<=level}(k_q · P_q), the level-i
// (m,k)-hyperperiod of Eq. (5), saturating at cap. level is a task index.
// It folds one running LCM over the prefix and allocates nothing.
func (s *Set) MKHyperperiodLevel(level int, cap timeu.Time) timeu.Time {
	var l timeu.Time
	for q := 0; q <= level && q < len(s.Tasks); q++ {
		t := &s.Tasks[q]
		kp := timeu.Time(t.K) * t.Period
		if kp > cap || kp/t.Period != timeu.Time(t.K) {
			return cap
		}
		if q == 0 {
			l = kp
			continue
		}
		if l = timeu.LCM(l, kp, cap); l == cap {
			return cap
		}
	}
	return l
}

// String renders the set one task per line.
func (s *Set) String() string {
	var b strings.Builder
	for i, t := range s.Tasks {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	ts := make([]Task, len(s.Tasks))
	copy(ts, s.Tasks)
	return &Set{Tasks: ts}
}
