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

// TestTransientFreeMatchesTransientDuring replays each plan twice from
// one seed: once through TransientFree, once through n TransientDuring
// calls. With one duration the two must agree exactly; with several, a
// free verdict must mean no call faults, whichever durations the calls
// get. Either way a free plan has consumed exactly the calls' draws.
func TestTransientFreeMatchesTransientDuring(t *testing.T) {
	mixed := []timeu.Time{3 * timeu.Millisecond, 50 * timeu.Millisecond, 0, 10 * timeu.Millisecond}
	frees := 0
	for seed := uint64(0); seed < 400; seed++ {
		n := int(seed % 40)
		for _, ds := range [][]timeu.Time{mixed[1:2], mixed} {
			replay := NewPlan(PermanentAndTransient, timeu.Second, stats.NewRand(seed)).WithTransientRate(0.002)
			free := replay.TransientFree(n, ds)
			run := NewPlan(PermanentAndTransient, timeu.Second, stats.NewRand(seed)).WithTransientRate(0.002)
			faulted := false
			for i := 0; i < n; i++ {
				faulted = run.TransientDuring(ds[i%len(ds)]) || faulted
			}
			if free && faulted {
				t.Fatalf("seed %d n %d durations %v: TransientFree said no call could fault, but one did", seed, n, ds)
			}
			if len(ds) == 1 && free == faulted {
				t.Fatalf("seed %d n %d duration %v: TransientFree = %v, but a call faulted = %v", seed, n, ds[0], free, faulted)
			}
			if free {
				frees++
				if len(ds) == 1 && math.Float64bits(replay.rng.Float64()) != math.Float64bits(run.rng.Float64()) {
					t.Fatalf("seed %d n %d: the replay and the run consumed different draws", seed, n)
				}
			}
		}
	}
	if frees == 0 || frees == 800 {
		t.Errorf("%d of 800 replays free; the test needs both verdicts", frees)
	}
	if p := NewPlan(PermanentOnly, timeu.Second, stats.NewRand(1)); !p.TransientFree(1000, mixed) {
		t.Error("a plan without transient faults must be free")
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
