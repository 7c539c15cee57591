package policy

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
)

// fakePolicy is a registry-only stand-in; none of its hooks run.
type fakePolicy struct{ name string }

func (p *fakePolicy) Name() string                                        { return p.name }
func (p *fakePolicy) Init(e *sim.Engine) error                            { return nil }
func (p *fakePolicy) Release(e *sim.Engine, t *task.Task, index int)      {}
func (p *fakePolicy) Less(now timeu.Time, a, b *task.Job) bool            { return false }
func (p *fakePolicy) Runnable(now timeu.Time, j *task.Job) bool           { return true }
func (p *fakePolicy) OnSettled(e *sim.Engine, taskID, index int, ok bool) {}
func (p *fakePolicy) OnPermanentFault(e *sim.Engine, dead int)            {}

// emptyRegistry swaps in an empty builder table until the test ends, so
// registration can be exercised without disturbing the implementation
// packages the external tests of this package link in.
func emptyRegistry(t *testing.T) {
	saved := builders
	builders = [numApproaches]Builder{}
	t.Cleanup(func() { builders = saved })
}

func TestRegisterAndNew(t *testing.T) {
	emptyRegistry(t)
	for a := ST; a < numApproaches; a++ {
		Register(a, func(opts Options) sim.Policy {
			if opts.FDThreshold != 1 {
				t.Errorf("%v: FDThreshold default not applied: %d", a, opts.FDThreshold)
			}
			return &fakePolicy{name: a.String()}
		})
	}
	for a := ST; a < numApproaches; a++ {
		p, err := New(a, Options{})
		if err != nil {
			t.Fatalf("New(%v): %v", a, err)
		}
		if p.Name() != a.String() {
			t.Errorf("New(%v).Name() = %q", a, p.Name())
		}
	}
}

// TestNewUnknownNamesRegistered pins that New refuses an approach outside
// the table and one that nothing registered.
func TestNewUnknownNamesRegistered(t *testing.T) {
	emptyRegistry(t)
	for _, a := range []Approach{-1, numApproaches, 99, ST} {
		if _, err := New(a, Options{}); err == nil {
			t.Errorf("New(%v) accepted", a)
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	emptyRegistry(t)
	fake := func(Options) sim.Policy { return &fakePolicy{} }
	Register(DP, fake)
	for _, c := range []struct {
		a     Approach
		build Builder
	}{
		{DP, fake},            // duplicate
		{Approach(99), fake},  // unknown approach
		{numApproaches, fake}, // one past the table
		{Approach(-1), fake},  // negative
		{ST, nil},             // nil builder
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%v) did not panic", c.a)
				}
			}()
			Register(c.a, c.build)
		}()
	}
}

func TestFPLess(t *testing.T) {
	tk := task.New(0, 10, 10, 2, 1, 2)
	tk2 := task.New(1, 10, 10, 2, 1, 2)
	a := task.NewJob(tk, 1, task.Mandatory)
	b := task.NewJob(tk2, 1, task.Mandatory)
	if !FPLess(a, b) || FPLess(b, a) {
		t.Error("task priority ordering wrong")
	}
	c := task.NewJob(tk, 2, task.Mandatory)
	if !FPLess(a, c) {
		t.Error("index ordering wrong")
	}
	bk := task.NewBackup(tk, 1, 0)
	if !FPLess(a, bk) || FPLess(bk, a) {
		t.Error("main-before-backup tiebreak wrong")
	}
}
