package fault

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/timeu"
)

func TestScenarioString(t *testing.T) {
	if NoFault.String() != "no-fault" ||
		PermanentOnly.String() != "permanent" ||
		PermanentAndTransient.String() != "permanent+transient" {
		t.Error("scenario strings wrong")
	}
	if Scenario(9).String() == "" {
		t.Error("unknown scenario must render")
	}
}

func TestNoFaultPlan(t *testing.T) {
	p := NewPlan(NoFault, timeu.Second, stats.NewRand(1))
	if p.Permanent != nil || p.TransientRate != 0 {
		t.Error("no-fault plan must be inert")
	}
	if p.TransientDuring(timeu.Second) {
		t.Error("inert plan must never fault")
	}
}

func TestPermanentPlanInHorizon(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := NewPlan(PermanentOnly, timeu.Second, stats.NewRand(seed))
		if p.Permanent == nil {
			t.Fatal("permanent plan missing fault")
		}
		if p.Permanent.At < 0 || p.Permanent.At >= timeu.Second {
			t.Errorf("fault time %v outside horizon", p.Permanent.At)
		}
		if p.Permanent.Proc != 0 && p.Permanent.Proc != 1 {
			t.Errorf("bad proc %d", p.Permanent.Proc)
		}
		if p.TransientRate != 0 {
			t.Error("permanent-only plan must not set transient rate")
		}
	}
}

func TestPermanentAndTransientPlan(t *testing.T) {
	p := NewPlan(PermanentAndTransient, timeu.Second, stats.NewRand(7))
	if p.TransientRate != DefaultTransientRate {
		t.Errorf("rate = %v, want %v", p.TransientRate, DefaultTransientRate)
	}
}

func TestPermanentProcCoversBoth(t *testing.T) {
	procs := map[int]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		p := NewPlan(PermanentOnly, timeu.Second, stats.NewRand(seed))
		procs[p.Permanent.Proc] = true
	}
	if !procs[0] || !procs[1] {
		t.Error("permanent faults must hit both processors across seeds")
	}
}

func TestTransientDuringRate(t *testing.T) {
	// With a large rate the empirical fault fraction must track
	// 1 - exp(-lambda * d).
	p := NoFaults().WithTransientRate(0.01)
	p.rng = stats.NewRand(99)
	d := 50 * timeu.Millisecond
	want := 1 - math.Exp(-0.01*50)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.TransientDuring(d) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical fault rate %v, want ~%v", got, want)
	}
}

func TestTransientDuringZeroDuration(t *testing.T) {
	p := NoFaults().WithTransientRate(1)
	if p.TransientDuring(0) {
		t.Error("zero-duration execution cannot fault")
	}
}

func TestPlanString(t *testing.T) {
	p := NewPlan(PermanentAndTransient, timeu.Second, stats.NewRand(3))
	s := p.String()
	if !strings.Contains(s, "permanent@") || !strings.Contains(s, "transient") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(NoFaults().String(), "no-permanent") {
		t.Error("inert plan string wrong")
	}
}
