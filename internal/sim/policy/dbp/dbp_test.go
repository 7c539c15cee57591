package dbp

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
)

// randomSet draws a small task set from a harmonic-ish period pool so the
// hyperperiod stays tiny (≤ 40ms) and the exact test closes its cycle
// fast. WCETs are kept light enough that θ analysis usually converges;
// sets it rejects are simply skipped by the callers.
func randomSet(rng *stats.Rand) *task.Set {
	periods := []float64{5, 10, 20, 40}
	n := 2 + rng.Intn(3)
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := periods[rng.Intn(len(periods))]
		k := 2 + rng.Intn(4)
		m := 1 + rng.Intn(k-1)
		c := 1 + rng.Intn(3)
		d := p - float64(rng.Intn(2))
		tasks[i] = task.New(i, p, d, float64(c), m, k)
	}
	return task.NewSet(tasks...)
}

// bruteDistance recomputes a job's distance to failure from first
// principles: seed a fresh window with the task's realized outcome prefix,
// then count how many consecutive misses it absorbs before Violated()
// flips. It deliberately avoids FlexibilityDegree, which is what the
// policy uses — the two must agree by Definition 1.
func bruteDistance(m, k int, prefix []bool) int {
	h := pattern.NewHistory(m, k)
	for _, eff := range prefix {
		h.Record(eff)
	}
	for d := 1; ; d++ {
		h.Record(false)
		if h.Violated() {
			return d
		}
	}
}

type classification struct{ taskID, index, dist int }

// TestDistanceBookkeeping is the satellite property test: across random
// sets, fault scenarios and a warm reused Scratch, every distance the
// policy assigns at release equals the brute-force recount from the run's
// own realized outcome prefix. This pins the constrained-deadline
// argument in the dbpPolicy doc comment — the distance recorded at
// release is the exact dynamic value, under faults too.
func TestDistanceBookkeeping(t *testing.T) {
	rng := stats.NewRand(0xdbf)
	scratch := sim.NewScratch()
	scenarios := []fault.Scenario{fault.NoFault, fault.PermanentOnly, fault.PermanentAndTransient}
	runs := 0
	for trial := 0; trial < 60; trial++ {
		s := randomSet(rng)
		horizon := 8 * s.Hyperperiod(timeu.Second)
		var got []classification
		p := &dbpPolicy{
			opts: policy.Options{FDThreshold: 1},
			onClassify: func(taskID, index, dist int) {
				got = append(got, classification{taskID, index, dist})
			},
		}
		plan := fault.NewPlan(scenarios[trial%len(scenarios)], horizon, stats.NewRand(rng.Uint64()))
		cfg := sim.Config{Horizon: horizon, Faults: plan}
		if trial%2 == 1 {
			cfg.Scratch = scratch // warm path: reused arenas must not leak state
		}
		eng, err := sim.New(s, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := eng.Run()
		if err != nil {
			// θ analysis can reject a set whose mandatory load diverges.
			continue
		}
		runs++
		for _, c := range got {
			tk := s.Tasks[c.taskID]
			prefix := r.Outcomes[c.taskID]
			if c.index-1 > len(prefix) {
				t.Fatalf("trial %d: task %d job %d classified but only %d outcomes settled",
					trial, c.taskID, c.index, len(prefix))
			}
			// Constrained deadlines: jobs 1..index-1 settled strictly
			// before this release, so the window at release is exactly
			// the realized prefix.
			want := bruteDistance(tk.M, tk.K, prefix[:c.index-1])
			if c.dist != want {
				t.Errorf("trial %d: task %d job %d classified at distance %d, brute-force recount says %d (prefix %v)",
					trial, c.taskID, c.index, c.dist, want, prefix[:c.index-1])
			}
		}
	}
	if runs < 30 {
		t.Fatalf("only %d/60 trials ran; generator or θ analysis too restrictive", runs)
	}
}

// heavySet biases toward (m,k)-overload: tight constraints (m close to
// k) on heavy WCETs, so the static mandatory set often stays θ-feasible
// while DBP's dynamic promotions pile up and violate. This is the
// refutation half of the agreement corpus — randomSet alone almost never
// produces unschedulable-yet-θ-feasible sets.
func heavySet(rng *stats.Rand) *task.Set {
	periods := []float64{10, 20, 40}
	n := 2 + rng.Intn(2)
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := periods[rng.Intn(len(periods))]
		k := 2 + rng.Intn(3)
		m := k - 1
		c := p/float64(n) + 1 + float64(rng.Intn(4))
		tasks[i] = task.New(i, p, p, c, m, k)
	}
	return task.NewSet(tasks...)
}

// TestReleaseClassification pins the two tiers on the paper's Fig. 1 set:
// a fresh window starts every task at its maximal distance, and after
// enough consecutive misses the distance walks down to the promoted tier.
func TestReleaseClassification(t *testing.T) {
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	var first []classification
	p := &dbpPolicy{
		opts: policy.Options{FDThreshold: 1},
		onClassify: func(taskID, index, dist int) {
			if index == 1 {
				first = append(first, classification{taskID, index, dist})
			}
		},
	}
	eng, err := sim.New(s, p, sim.Config{Horizon: timeu.FromMillis(20)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Fresh windows: τ1 (2,4) absorbs 2 misses → distance 3; τ2 (1,2)
	// absorbs 1 → distance 2.
	want := []classification{{0, 1, 3}, {1, 1, 2}}
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Errorf("first-job classifications %v, want %v", first, want)
	}
}

// TestRegistryConstructible pins the policy's registry wiring: MKSS-DBP
// is constructible, reports its canonical name, and its aliases parse to
// it.
func TestRegistryConstructible(t *testing.T) {
	p, err := policy.New(policy.DBP, policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "MKSS-DBP" {
		t.Errorf("Name() = %q, want MKSS-DBP", p.Name())
	}
	for _, name := range []string{"mkss-dbp", "dbp", "Distance"} {
		if a, err := policy.ParseApproach(name); err != nil || a != policy.DBP {
			t.Errorf("ParseApproach(%q) = %v, %v", name, a, err)
		}
	}
}
