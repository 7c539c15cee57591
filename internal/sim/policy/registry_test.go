package policy

import (
	"strings"
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

func TestRegisterAndNew(t *testing.T) {
	Register("test-fake", func(opts Options) sim.Policy {
		if opts.FDThreshold != 1 {
			t.Errorf("FDThreshold default not applied: %d", opts.FDThreshold)
		}
		return &fakePolicy{name: "test-fake"}
	})
	// Case-insensitive lookup.
	for _, name := range []string{"test-fake", "TEST-FAKE", "Test-Fake"} {
		p, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != "test-fake" {
			t.Errorf("Name() = %q", p.Name())
		}
	}
	found := false
	for _, n := range Names() {
		if n == "test-fake" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing test-fake", Names())
	}
}

func TestNewUnknownNamesRegistered(t *testing.T) {
	_, err := New("no-such-policy", Options{})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("error does not list registered policies: %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	Register("test-dup", func(Options) sim.Policy { return &fakePolicy{name: "test-dup"} })
	for _, c := range []struct {
		name  string
		build Builder
	}{
		{"test-dup", func(Options) sim.Policy { return nil }}, // exact dup
		{"TEST-DUP", func(Options) sim.Policy { return nil }}, // case-folded dup
		{"", func(Options) sim.Policy { return nil }},         // empty name
		{"test-nil", nil}, // nil builder
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", c.name)
				}
			}()
			Register(c.name, c.build)
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
