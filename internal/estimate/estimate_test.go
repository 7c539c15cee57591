package estimate

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro"
	"repro/internal/timeu"
)

func paperSet() *repro.Set {
	return repro.NewSet(repro.NewTask(5, 4, 3, 2, 4), repro.NewTask(10, 10, 3, 1, 2))
}

func TestRegistry(t *testing.T) {
	got := Backends()
	want := []string{"sim", "twin"}
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}

	r := repro.NewRunner(repro.RunnerConfig{})
	def, err := New("", r)
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != DefaultBackend {
		t.Errorf("New(\"\") built %q, want default %q", def.Name(), DefaultBackend)
	}
	if _, err := New("oracle", r); err == nil {
		t.Error("New(oracle) must fail")
	} else if !strings.Contains(err.Error(), "twin") || !strings.Contains(err.Error(), "sim") {
		t.Errorf("unknown-backend error should list the registry, got %v", err)
	}
}

// The twin's verdicts must be simulation-exact and its energy figures
// close on the paper's running example, for every approach and both
// deterministic fault scenarios. The committed per-scenario bounds over
// the Fig-6 corpus are enforced separately (TestTwinErrorBounds); this
// pins the model on the one set we can reason about by hand.
func TestTwinMatchesSimOnPaperSet(t *testing.T) {
	r := repro.NewRunner(repro.RunnerConfig{})
	set := paperSet()

	// Greedy's optionals can expire mid-schedule in ways no closed form
	// sees, so its tolerance is looser.
	tol := map[repro.Approach]float64{
		repro.ST:           0.05,
		repro.DP:           0.05,
		repro.DPBackground: 0.15,
		repro.Selective:    0.05,
		repro.Greedy:       0.25,
	}

	for _, a := range []repro.Approach{repro.ST, repro.DP, repro.DPBackground, repro.Selective, repro.Greedy} {
		for _, sc := range []repro.Scenario{repro.NoFault, repro.PermanentOnly} {
			req := Request{Set: set, Approach: a, Scenario: sc, Seed: 42, HorizonMS: 100}
			tw, err := New("twin", r)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := New("sim", r)
			if err != nil {
				t.Fatal(err)
			}
			at, err := tw.Estimate(context.Background(), req)
			if err != nil {
				t.Fatalf("%v/%v twin: %v", a, sc, err)
			}
			as, err := sm.Estimate(context.Background(), req)
			if err != nil {
				t.Fatalf("%v/%v sim: %v", a, sc, err)
			}
			if at.Exact || !as.Exact {
				t.Errorf("%v/%v: Exact flags twin=%v sim=%v", a, sc, at.Exact, as.Exact)
			}
			if at.Policy != as.Policy {
				t.Errorf("%v/%v: policy %q vs %q", a, sc, at.Policy, as.Policy)
			}
			if at.Horizon != as.Horizon {
				t.Errorf("%v/%v: horizon %v vs %v", a, sc, at.Horizon, as.Horizon)
			}
			if at.Schedulable != as.Schedulable {
				t.Errorf("%v/%v: schedulable %v vs %v", a, sc, at.Schedulable, as.Schedulable)
			}
			if at.MKPredicted != as.MKPredicted {
				t.Errorf("%v/%v: mk %v vs %v", a, sc, at.MKPredicted, as.MKPredicted)
			}
			for _, e := range []struct {
				name       string
				twin, real float64
			}{
				{"active", at.ActiveEnergy, as.ActiveEnergy},
				{"total", at.TotalEnergy, as.TotalEnergy},
			} {
				rel := math.Abs(e.twin-e.real) / e.real
				if rel > tol[a] {
					t.Errorf("%v/%v: %s energy twin=%.2f sim=%.2f (rel err %.3f > %.2f)",
						a, sc, e.name, e.twin, e.real, rel, tol[a])
				}
			}
		}
	}
}

// newTwin builds the twin backend around r through the registry.
func newTwin(t *testing.T, r *repro.Runner) Estimator {
	t.Helper()
	tw, err := New("twin", r)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// A zero horizon must resolve exactly as Runner.Simulate resolves it.
func TestTwinDefaultHorizon(t *testing.T) {
	r := repro.NewRunner(repro.RunnerConfig{})
	set := paperSet()
	a, err := newTwin(t, r).Estimate(context.Background(), Request{Set: set, Approach: repro.ST})
	if err != nil {
		t.Fatal(err)
	}
	if want := set.MKHyperperiod(2000 * timeu.Millisecond); a.Horizon != want {
		t.Errorf("default horizon %v, want %v", a.Horizon, want)
	}
}

// The twin's schedulability verdict is the public Theorem-1 test, not an
// approximation of it.
func TestTwinSchedulableIsExact(t *testing.T) {
	r := repro.NewRunner(repro.RunnerConfig{})
	set := paperSet()
	a, err := newTwin(t, r).Estimate(context.Background(), Request{Set: set, Approach: repro.DP, HorizonMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedulable != repro.RPatternSchedulable(set) {
		t.Errorf("twin schedulable %v, public verdict %v", a.Schedulable, repro.RPatternSchedulable(set))
	}
}

// Steady-state execution fractions of the selective policy's FD
// automaton. (2,4) orbits skip/exec/exec → 2/3; (1,2) never reaches
// FD ≥ 2 → every job; m = k degenerates to FD = 0 forever.
func TestExecFraction(t *testing.T) {
	cases := []struct {
		m, k int
		want float64
	}{
		{2, 4, 2.0 / 3.0},
		{1, 2, 1.0},
		{4, 4, 1.0},
		{3, 4, 1.0},
	}
	for _, c := range cases {
		if got := execFraction(c.m, c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("execFraction(%d,%d) = %v, want %v", c.m, c.k, got, c.want)
		}
	}
	// Never below the mandatory ratio, never above one.
	for k := 2; k <= 8; k++ {
		for m := 1; m <= k; m++ {
			f := execFraction(m, k)
			if f < float64(m)/float64(k)-1e-12 || f > 1+1e-12 {
				t.Errorf("execFraction(%d,%d) = %v out of [m/k, 1]", m, k, f)
			}
		}
	}
}

// The twin must refuse policies its closed forms do not model — a typed
// UnsupportedError, never a zero-activity estimate that looks plausible.
func TestTwinUnsupportedDBP(t *testing.T) {
	r := repro.NewRunner(repro.RunnerConfig{})
	twin := newTwin(t, r)
	_, err := twin.Estimate(context.Background(), Request{
		Set: paperSet(), Approach: repro.DBP, HorizonMS: 100,
	})
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("twin answered for DBP with err=%v; want UnsupportedError", err)
	}
	if ue.Backend != "twin" || ue.Policy != "MKSS-DBP" {
		t.Errorf("error identifies %q/%q, want twin/MKSS-DBP", ue.Backend, ue.Policy)
	}
	// Every modeled approach still answers.
	for _, a := range append(repro.Approaches(), repro.DPBackground) {
		if _, err := twin.Estimate(context.Background(), Request{Set: paperSet(), Approach: a, HorizonMS: 100}); err != nil {
			t.Errorf("%v: %v", a, err)
		}
	}
}
