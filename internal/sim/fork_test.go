package sim

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/timeu"
)

// forkingPolicy is stopPolicy with the Forker hook, so the engine may
// capture its runs.
type forkingPolicy struct{ stopPolicy }

func (p *forkingPolicy) Fork() Policy {
	c := *p
	return &c
}

// TestForkOnlyWhereResumable pins when a run captures a fork and when a
// run refuses to resume from one. Only a fault-free run without a sink
// or a trace, whose policy is a Forker, captures; a resume needs the
// same tasks, horizon, power and approach, a plan whose permanent fault
// is at the fork's instant and no transient rate, and no sink or trace.
func TestForkOnlyWhereResumable(t *testing.T) {
	r := coincidenceRun()
	at := ms(20)
	run := func(pol Policy, cfg Config) (*Result, error) {
		t.Helper()
		cfg.Horizon = r.horizon
		eng, err := New(r.set, pol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Run()
	}
	permanent := func(at timeu.Time, rate float64) *fault.Plan {
		return &fault.Plan{Permanent: &fault.Permanent{At: at, Proc: Primary}, TransientRate: rate}
	}
	for _, c := range []struct {
		name string
		pol  Policy
		cfg  Config
		fork bool
	}{
		{"fault-free", &forkingPolicy{stopPolicy{theta: r.theta}}, Config{}, true},
		{"policy without Fork", &stopPolicy{theta: r.theta}, Config{}, false},
		{"permanent fault", &forkingPolicy{stopPolicy{theta: r.theta}}, Config{Faults: permanent(ms(25), 0)}, false},
		{"transient rate", &forkingPolicy{stopPolicy{theta: r.theta}}, Config{Faults: fault.NoFaults().WithTransientRate(1e-9)}, false},
		{"sink", &forkingPolicy{stopPolicy{theta: r.theta}}, Config{Sink: &metrics.Collector{}}, false},
		{"trace", &forkingPolicy{stopPolicy{theta: r.theta}}, Config{RecordTrace: true}, false},
	} {
		c.cfg.ForkAt = at
		res, err := run(c.pol, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ForkOf(res) != nil; got != c.fork {
			t.Errorf("%s: captured a fork: %v, want %v", c.name, got, c.fork)
		}
	}

	res, err := run(&forkingPolicy{stopPolicy{theta: r.theta}}, Config{ForkAt: at})
	if err != nil {
		t.Fatal(err)
	}
	f := ForkOf(res)
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no fault", Config{}, "permanent fault at"},
		{"another instant", Config{Faults: permanent(at+1, 0)}, "permanent fault at"},
		{"transient rate", Config{Faults: permanent(at, 1e-9)}, "permanent fault at"},
		{"another horizon", Config{Faults: permanent(at, 0), Horizon: r.horizon + 1}, "another run"},
		{"sink", Config{Faults: permanent(at, 0), Sink: &metrics.Collector{}}, "traced or observed"},
		{"trace", Config{Faults: permanent(at, 0), RecordTrace: true}, "traced or observed"},
	} {
		c.cfg.Resume = f
		if c.cfg.Horizon == 0 {
			c.cfg.Horizon = r.horizon
		}
		eng, err := New(r.set, &forkingPolicy{stopPolicy{theta: r.theta}}, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: resume error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
