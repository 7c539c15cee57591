package experiment

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// memoBase is one small accepting interval whose lower bound is
// 0.1+0.1+0.1 (0.30000000000000004, not 0.3), seeded as interval 2 of a
// sweep from 0.1.
func memoBase() Config {
	cfg := DefaultConfig(fault.NoFault)
	cfg.Seed = 7
	cfg.SetsPerInterval = 2
	cfg.MaxCandidates = 300
	cfg.Intervals = workload.Intervals(0.1, 0.5, 0.1)[2:3]
	cfg.IntervalOffset = 2
	cfg.Approaches = []policy.Approach{policy.ST, policy.Selective}
	cfg.Workers = 2
	return cfg
}

func withMemo(cfg Config, m *IntervalMemo) Config {
	cfg.IntervalMemo = m
	return cfg
}

// rowsDiff describes the first difference between two sweeps' rows —
// candidates, set contents, normalized means as float bits, counters —
// or returns "" when they match.
func rowsDiff(got, want []Row) string {
	if len(got) != len(want) {
		return "row count differs"
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Interval != w.Interval || g.Candidates != w.Candidates || len(g.Sets) != len(w.Sets) {
			return "interval " + w.Interval.String() + ": candidates or set count differ"
		}
		for si := range w.Sets {
			if g.Sets[si].Set.String() != w.Sets[si].Set.String() {
				return "interval " + w.Interval.String() + ": set contents differ"
			}
		}
		for a, mean := range w.NormMean {
			if math.Float64bits(g.NormMean[a]) != math.Float64bits(mean) || g.Counters[a] != w.Counters[a] {
				return "interval " + w.Interval.String() + " " + a.String() + ": mean or counters differ"
			}
		}
	}
	return ""
}

// TestIntervalMemoKeyCompleteness changes one input at a time after the
// base interval was kept. A change to anything generate reads must miss
// the memo; a change to anything else must hit it. Either way the sweep
// must reproduce a fresh one.
func TestIntervalMemoKeyCompleteness(t *testing.T) {
	type keyCase struct {
		name   string
		change func(*Config)
		hit    bool
	}
	cases := []keyCase{
		{"nothing", func(*Config) {}, true},
		{"scenario", func(c *Config) { c.Scenario = fault.PermanentAndTransient }, true},
		{"approaches", func(c *Config) { c.Approaches = []policy.Approach{policy.DP} }, true},
		{"workers", func(c *Config) { c.Workers = 1 }, true},
		{"seed", func(c *Config) { c.Seed++ }, false},
		{"interval offset", func(c *Config) { c.IntervalOffset++ }, false},
		{"lo 0.3 not 0.1+0.1+0.1", func(c *Config) { c.Intervals[0].Lo = 0.3 }, false},
		{"lo one ulp lower", func(c *Config) { c.Intervals[0].Lo = math.Nextafter(c.Intervals[0].Lo, 0) }, false},
		{"hi one ulp higher", func(c *Config) { c.Intervals[0].Hi = math.Nextafter(c.Intervals[0].Hi, 1) }, false},
		{"sets", func(c *Config) { c.SetsPerInterval++ }, false},
		{"candidates", func(c *Config) { c.MaxCandidates++ }, false},
	}
	wt := reflect.TypeOf(workload.Config{})
	for i := 0; i < wt.NumField(); i++ {
		cases = append(cases, keyCase{name: "workload." + wt.Field(i).Name, change: func(c *Config) {
			f := reflect.ValueOf(&c.Workload).Elem().Field(i)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			default:
				panic("no test change for workload field kind " + f.Kind().String())
			}
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			memo := NewIntervalMemo(0)
			if _, err := Run(withMemo(memoBase(), memo)); err != nil {
				t.Fatal(err)
			}
			cfg := memoBase()
			c.change(&cfg)
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(withMemo(cfg, memo))
			if err != nil {
				t.Fatal(err)
			}
			wantHits := uint64(0)
			if c.hit {
				wantHits = 1
			}
			if hits, misses := memo.Counts(); hits != wantHits || misses != 2-wantHits {
				t.Errorf("seed %d: %d hits, %d misses after changing %s; want %d hits", cfg.Seed, hits, misses, c.name, wantHits)
			}
			if d := rowsDiff(got.Rows, fresh.Rows); d != "" {
				t.Errorf("seed %d: memoized sweep differs from a fresh one: %s", cfg.Seed, d)
			}
		})
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so a test
// can cut an interval's generation at a fixed chunk.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestIntervalMemoSkipsCanceledDraw cancels a sweep in the middle of a
// rejecting interval's draw. The cut-short interval must not be kept:
// the next full sweep draws it again and matches a fresh sweep.
func TestIntervalMemoSkipsCanceledDraw(t *testing.T) {
	cfg := DefaultConfig(fault.NoFault)
	cfg.Seed = 2020
	cfg.Intervals = workload.Intervals(0.1, 1.0, 0.1)[8:]
	cfg.IntervalOffset = 8
	cfg.Workers = 1
	memo := NewIntervalMemo(0)

	// One Err call as the interval starts, then one per chunk: the draw
	// stops after 3 of its 20 chunks.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.n.Store(4)
	rep, err := RunContext(ctx, withMemo(cfg, memo))
	if !errors.Is(err, context.Canceled) || rep == nil || len(rep.Rows) != 0 {
		t.Fatalf("seed %d: canceled sweep returned %v rows, err %v", cfg.Seed, rep, err)
	}
	if _, misses := memo.Counts(); misses != 1 || len(memo.kept) != 0 {
		t.Fatalf("seed %d: %d lookups, %d intervals kept; want the canceled draw looked up once and not kept",
			cfg.Seed, misses, len(memo.kept))
	}

	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run, wantHits := range []uint64{0, 1} {
		got, err := Run(withMemo(cfg, memo))
		if err != nil {
			t.Fatal(err)
		}
		if d := rowsDiff(got.Rows, fresh.Rows); d != "" {
			t.Errorf("seed %d run %d: %s", cfg.Seed, run, d)
		}
		if hits, misses := memo.Counts(); hits != wantHits || misses != 2 {
			t.Errorf("seed %d run %d: %d hits, %d misses; want %d and 2", cfg.Seed, run, hits, misses, wantHits)
		}
	}
}

// TestIntervalMemoBounds pins the two bounds — at most memoIntervals
// intervals and at most maxSets sets — and the oldest-first eviction.
func TestIntervalMemoBounds(t *testing.T) {
	oneSetEach := make([]int, memoIntervals+4)
	var newest []int
	for i := range oneSetEach {
		oneSetEach[i] = 1
		if i >= 4 {
			newest = append(newest, i)
		}
	}
	cases := []struct {
		name    string
		maxSets int
		sizes   []int // sets of each interval put, in order
		kept    []int // the intervals kept afterwards, oldest first
	}{
		{"negative bound keeps nothing", -1, []int{0, 1, 2}, nil},
		{"interval bound evicts the oldest", 0, oneSetEach, newest},
		{"set bound evicts the oldest", 5, []int{2, 2, 2}, []int{1, 2}},
		{"interval over the set bound is not kept", 5, []int{2, 6, 1}, []int{0, 2}},
		{"interval at the set bound is kept", 4, []int{3, 4}, []int{1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewIntervalMemo(c.maxSets)
			for i, n := range c.sizes {
				m.put(memoKey{seed: uint64(i)}, workload.IntervalResult{Sets: make([]*task.Set, n)})
			}
			var kept []int
			sets := 0
			for _, e := range m.kept {
				kept = append(kept, int(e.key.seed))
				sets += len(e.res.Sets)
			}
			if !slices.Equal(kept, c.kept) || sets != m.sets {
				t.Fatalf("kept %v (%d sets, counted %d), want %v", kept, sets, m.sets, c.kept)
			}
			for i := range c.sizes {
				if _, ok := m.get(memoKey{seed: uint64(i)}); ok != slices.Contains(c.kept, i) {
					t.Errorf("interval %d: lookup hit %v", i, ok)
				}
			}
		})
	}
}

// TestForkBounds pins the fork handoff's set budget: a unit with more
// sets than the memo keeps captures nothing, waiting forks cover at most
// the memo's sets, the oldest unit dropped first, a unit whose forks
// wait captures nothing more, and a memo with a negative bound captures
// nothing at all.
func TestForkBounds(t *testing.T) {
	m := NewIntervalMemo(5)
	key := func(seed uint64) unitKey {
		return unitKey{seed: seed, approaches: approachesKey([]policy.Approach{policy.ST, policy.DP})}
	}
	if m.forking(key(9), 6) {
		t.Error("a 6-set unit captures forks under a 5-set bound")
	}
	for seed := uint64(0); seed < 3; seed++ {
		if !m.forking(key(seed), 2) {
			t.Fatalf("unit %d: a 2-set unit captures no forks", seed)
		}
		m.keepForks(key(seed), make([]*sim.Fork, 2*2))
	}
	var kept []uint64
	for _, w := range m.forks {
		kept = append(kept, w.key.seed)
	}
	if !slices.Equal(kept, []uint64{1, 2}) {
		t.Errorf("units %v wait after three 2-set units under a 5-set bound, want [1 2]", kept)
	}
	if m.forking(key(2), 2) {
		t.Error("a unit whose forks wait captures again")
	}
	if NewIntervalMemo(-1).forking(key(0), 0) {
		t.Error("a memo with a negative bound captures forks")
	}
}

// TestTransientFreeMatchesRealRuns is the handoff rule's oracle. Over
// the seed-2020 full-fidelity Figure-6(b) sweep it replays, for every
// (set, approach), the 6(c) plan's draws up to the 6(b) run's
// completions, as runSet does, at the paper's transient rate and at
// 10⁻³/ms. Every run the rule takes must equal the real
// PermanentAndTransient run: counters, active-energy bits and (m,k)
// verdict. The taken counts are pinned, so a rule that stops taking, or
// takes more, fails here.
func TestTransientFreeMatchesRealRuns(t *testing.T) {
	cfg := DefaultConfig(fault.PermanentOnly)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := analysis.NewCache(0)
	for _, c := range []struct {
		rate                   float64
		runs, taken, identical int
	}{
		{fault.DefaultTransientRate, 363, 360, 361},
		{1e-3, 363, 40, 146},
	} {
		runs, taken, identical := 0, 0, 0
		for ivIdx, row := range rep.Rows {
			for si, sr := range row.Sets {
				faultSeed := stats.DeriveSeed(cfg.Seed, uint64(1_000_000+ivIdx*10_000+si))
				wcets := make([]timeu.Time, len(sr.Set.Tasks))
				for i, tk := range sr.Set.Tasks {
					wcets[i] = tk.WCET
				}
				opts := policy.Options{Offline: cache.Get(sr.Set, analysis.Options{})}
				for _, a := range rep.Approaches {
					runs++
					plan := fault.NewPlan(fault.PermanentAndTransient, sr.Horizon, stats.NewRand(faultSeed)).WithTransientRate(c.rate)
					takes := plan.TransientFree(sr.Counters[a].Completions, wcets)
					res, err := Simulate(context.Background(), sr.Set, a, opts, fault.PermanentAndTransient, c.rate, faultSeed,
						sim.Config{Power: sim.DefaultPower(), Horizon: sr.Horizon})
					if err != nil {
						t.Fatal(err)
					}
					same := res.Counters == sr.Counters[a] &&
						math.Float64bits(res.ActiveEnergy()) == math.Float64bits(sr.Active[a]) &&
						res.MKSatisfied() == !sr.Violated[a]
					if same {
						identical++
					}
					if takes {
						taken++
						if !same {
							t.Errorf("rate %g interval %v set %d %v fault seed %d: the rule takes the 6(b) run, but the 6(c) run differs",
								c.rate, row.Interval, si, a, faultSeed)
						}
					}
				}
			}
		}
		if runs != c.runs || taken != c.taken || identical != c.identical {
			t.Errorf("seed %d rate %g: %d runs, %d taken, %d identical to 6(b); want %d, %d, %d",
				cfg.Seed, c.rate, runs, taken, identical, c.runs, c.taken, c.identical)
		}
	}
}

// handoffBase is memoBase's interval under a permanent fault.
func handoffBase() Config {
	cfg := memoBase()
	cfg.Scenario = fault.PermanentOnly
	return cfg
}

// TestHandoffKeyCompleteness runs the base Figure-6(b) unit, then a
// 6(c) unit with one input changed. A change to anything the unit's runs
// read besides the sets must miss the 6(b) outcomes, so no run is taken;
// a change to anything else must take them. Either way the 6(c) sweep
// must reproduce a fresh one.
func TestHandoffKeyCompleteness(t *testing.T) {
	type keyCase struct {
		name   string
		change func(*Config)
		hit    bool
	}
	cases := []keyCase{
		{"nothing", func(*Config) {}, true},
		{"workers", func(c *Config) { c.Workers = 1 }, true},
		{"defaults given", func(c *Config) {
			c.Power, c.MinHorizon, c.HorizonCap = sim.DefaultPower(), 500*timeu.Millisecond, 2*timeu.Second
		}, true},
		{"approaches reordered", func(c *Config) { c.Approaches = []policy.Approach{policy.Selective, policy.ST} }, false},
		{"approach added", func(c *Config) { c.Approaches = append(c.Approaches, policy.DP) }, false},
		{"seed", func(c *Config) { c.Seed++ }, false},
		{"interval offset", func(c *Config) { c.IntervalOffset++ }, false},
		{"lo one ulp lower", func(c *Config) { c.Intervals[0].Lo = math.Nextafter(c.Intervals[0].Lo, 0) }, false},
		{"hi one ulp higher", func(c *Config) { c.Intervals[0].Hi = math.Nextafter(c.Intervals[0].Hi, 1) }, false},
		{"sets", func(c *Config) { c.SetsPerInterval++ }, false},
		{"candidates", func(c *Config) { c.MaxCandidates++ }, false},
		{"workload", func(c *Config) { c.Workload.NTasksMax++ }, false},
		{"min horizon", func(c *Config) { c.MinHorizon += timeu.Millisecond }, false},
		{"horizon cap", func(c *Config) { c.HorizonCap -= timeu.Millisecond }, false},
	}
	// change bumps one field of a key struct: a float by one ulp, so the
	// key must hold its exact bits.
	change := func(f reflect.Value) {
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), 2))
		default:
			panic("no test change for field kind " + f.Kind().String())
		}
	}
	ot := reflect.TypeOf(policy.Options{})
	for i := 0; i < ot.NumField(); i++ {
		if ot.Field(i).Name == "Offline" {
			continue // TestHandoffOfflineProducts
		}
		cases = append(cases, keyCase{name: "options." + ot.Field(i).Name, change: func(c *Config) {
			change(reflect.ValueOf(&c.CoreOpts).Elem().Field(i))
		}})
	}
	pt := reflect.TypeOf(sim.PowerModel{})
	for i := 0; i < pt.NumField(); i++ {
		cases = append(cases, keyCase{name: "power." + pt.Field(i).Name, change: func(c *Config) {
			c.Power = sim.DefaultPower()
			change(reflect.ValueOf(&c.Power).Elem().Field(i))
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			memo := NewIntervalMemo(0)
			if _, err := Run(withMemo(handoffBase(), memo)); err != nil {
				t.Fatal(err)
			}
			cfg := handoffBase()
			cfg.Scenario = fault.PermanentAndTransient
			c.change(&cfg)
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(withMemo(cfg, memo))
			if err != nil {
				t.Fatal(err)
			}
			if taken := memo.Taken(); (taken > 0) != c.hit {
				t.Errorf("seed %d: %d runs taken after changing %s; want a take: %v", cfg.Seed, taken, c.name, c.hit)
			}
			if d := rowsDiff(got.Rows, fresh.Rows); d != "" {
				t.Errorf("seed %d: the 6(c) sweep differs from a fresh one: %s", cfg.Seed, d)
			}
		})
	}
}

// TestHandoffOfflineProducts pins that caller-supplied offline products
// turn the handoff off: they are not part of the key, so a 6(b) unit run
// with them keeps nothing and a 6(c) unit run with them takes nothing.
func TestHandoffOfflineProducts(t *testing.T) {
	cfg := handoffBase()
	cfg.SetsPerInterval = 1
	drawn, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CoreOpts.Offline = analysis.NewCache(0).Get(drawn.Rows[0].Sets[0].Set, analysis.Options{})
	memo := NewIntervalMemo(0)
	if _, err := Run(withMemo(cfg, memo)); err != nil {
		t.Fatal(err)
	}
	if len(memo.units) != 0 {
		t.Fatalf("seed %d: a 6(b) unit with caller products kept %d units", cfg.Seed, len(memo.units))
	}
	cfg.CoreOpts.Offline = nil
	if _, err := Run(withMemo(cfg, memo)); err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = fault.PermanentAndTransient
	cfg.CoreOpts.Offline = analysis.NewCache(0).Get(drawn.Rows[0].Sets[0].Set, analysis.Options{})
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(withMemo(cfg, memo))
	if err != nil {
		t.Fatal(err)
	}
	if memo.Taken() != 0 || len(memo.units) != 1 {
		t.Errorf("seed %d: a 6(c) unit with caller products took %d runs, left %d units waiting; want 0 and 1",
			cfg.Seed, memo.Taken(), len(memo.units))
	}
	if d := rowsDiff(got.Rows, fresh.Rows); d != "" {
		t.Errorf("seed %d: %s", cfg.Seed, d)
	}
}
