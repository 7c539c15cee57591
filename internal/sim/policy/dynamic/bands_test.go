package dynamic

import (
	"testing"

	"repro/internal/sim/policy"
	"repro/internal/task"
)

// TestSelectiveLessBands: the MJQ/OJQ band ordering of Algorithm 1,
// exercised directly.
func TestSelectiveLessBands(t *testing.T) {
	p := &selectivePolicy{}
	tk0 := task.New(0, 10, 10, 2, 1, 2)
	tk1 := task.New(1, 10, 10, 2, 1, 2)
	mand := task.NewJob(tk1, 1, task.Mandatory) // lower FP priority but MJQ
	opt := task.NewJob(tk0, 1, task.Optional)   // higher FP priority but OJQ
	if !p.Less(0, mand, opt) {
		t.Error("MJQ job must beat OJQ job regardless of task priority")
	}
	if p.Less(0, opt, mand) {
		t.Error("OJQ job must not beat MJQ job")
	}
	opt2 := task.NewJob(tk1, 1, task.Optional)
	if !p.Less(0, opt, opt2) {
		t.Error("within the OJQ, FP order must hold")
	}
}

// TestGreedyLessBands: mandatory band, then (FD, release, FP).
func TestGreedyLessBands(t *testing.T) {
	p := &greedyPolicy{}
	tk0 := task.New(0, 10, 10, 2, 1, 2)
	tk1 := task.New(1, 10, 10, 2, 1, 2)
	mand := task.NewJob(tk1, 1, task.Mandatory)
	opt := task.NewJob(tk0, 1, task.Optional)
	opt.FD = 1
	if !p.Less(0, mand, opt) || p.Less(0, opt, mand) {
		t.Error("mandatory band ordering wrong")
	}
	// Same FD: earlier release first.
	lateOpt := task.NewJob(tk0, 2, task.Optional)
	lateOpt.FD = 1
	if !p.Less(0, opt, lateOpt) {
		t.Error("FIFO within equal FD wrong")
	}
	// Same FD and release: FP tiebreak.
	opt2 := task.NewJob(tk1, 1, task.Optional)
	opt2.FD = 1
	if !p.Less(0, opt, opt2) {
		t.Error("FP tiebreak within OJQ wrong")
	}
}

// TestRegistryNames pins that both dynamic policies are registered and
// report their canonical names.
func TestRegistryNames(t *testing.T) {
	for _, c := range []struct {
		a    policy.Approach
		name string
	}{{policy.Greedy, "MKSS-greedy"}, {policy.Selective, "MKSS-selective"}} {
		p, err := policy.New(c.a, policy.Options{})
		if err != nil {
			t.Fatalf("policy.New(%v): %v", c.a, err)
		}
		if p.Name() != c.name {
			t.Errorf("Name() = %q, want %q", p.Name(), c.name)
		}
	}
}
