// Tests for the Runner session API: bit-for-bit equality between the
// cached/pooled path and the standalone path, cancellation behavior, and
// cache accounting through the public surface.
package repro

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// runnerCases spans approaches × scenarios so the equality tests cover
// every policy's use of the memoized products (ST: pattern table only;
// DP/greedy: promotion times; selective: θ analysis).
var runnerCases = []struct {
	a  Approach
	sc Scenario
}{
	{ST, NoFault},
	{DP, NoFault},
	{Greedy, NoFault},
	{Selective, NoFault},
	{DPBackground, NoFault},
	{Selective, PermanentOnly},
	{Selective, PermanentAndTransient},
	{DP, PermanentAndTransient},
}

// TestRunnerMatchesDirect is the PR's core promise: a Runner with the
// cache and scratch pool engaged produces the same Result — outcomes,
// trace, counters, energy, everything — as an uncached session, both on
// the first (cold) and second (warm) use of each entry.
func TestRunnerMatchesDirect(t *testing.T) {
	uncached := NewRunner(RunnerConfig{CacheEntries: -1})
	cached := NewRunner(RunnerConfig{})
	ctx := context.Background()
	for _, tc := range runnerCases {
		for _, s := range []*Set{motivationSet(), selectiveSet()} {
			cfg := RunConfig{HorizonMS: 200, Scenario: tc.sc, Seed: 7, RecordTrace: true}
			want, err := uncached.Simulate(ctx, s, tc.a, cfg)
			if err != nil {
				t.Fatalf("%v/%v uncached: %v", tc.a, tc.sc, err)
			}
			cold, err := cached.Simulate(ctx, s, tc.a, cfg)
			if err != nil {
				t.Fatalf("%v/%v cold: %v", tc.a, tc.sc, err)
			}
			warm, err := cached.Simulate(ctx, s, tc.a, cfg)
			if err != nil {
				t.Fatalf("%v/%v warm: %v", tc.a, tc.sc, err)
			}
			for name, got := range map[string]*Result{"cold": cold, "warm": warm} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%v %s result differs from uncached run", tc.a, tc.sc, name)
				}
				if got.Counters != want.Counters {
					t.Errorf("%v/%v %s counters = %+v, want %+v", tc.a, tc.sc, name, got.Counters, want.Counters)
				}
				if problems := CheckCounters(got); len(problems) > 0 {
					t.Errorf("%v/%v %s counter invariants: %v", tc.a, tc.sc, name, problems)
				}
			}
		}
	}
	if st := cached.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache never exercised: %+v", st)
	}
	if st := uncached.CacheStats(); st.Hits != 0 || st.Entries != 0 || st.Capacity >= 0 {
		t.Errorf("disabled cache memoized something: %+v", st)
	}
}

// TestPackageWrappersMatchRunner pins the free functions to the session
// path: Simulate is SimulateContext(Background) is defaultRunner.
func TestPackageWrappersMatchRunner(t *testing.T) {
	s := motivationSet()
	cfg := RunConfig{HorizonMS: 100, RecordTrace: true}
	a, err := Simulate(s, Selective, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateContext(context.Background(), s, Selective, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Simulate and SimulateContext disagree")
	}
}

func smallSweepConfig(workers int) SweepConfig {
	cfg := DefaultSweepConfig(PermanentOnly)
	cfg.SetsPerInterval = 2
	cfg.MaxCandidates = 200
	cfg.Intervals = workload.Intervals(0.3, 0.6, 0.1)
	cfg.Workers = workers
	return cfg
}

// TestSweepCachedMatchesUncachedAcrossWorkers checks worker-invariance
// and cache-invariance of whole Reports: the same seed must yield
// deep-equal rows whether analyses are memoized or re-derived, and
// whatever the parallelism.
func TestSweepCachedMatchesUncachedAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	want, err := NewRunner(RunnerConfig{CacheEntries: -1}).Sweep(ctx, smallSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		rep, err := NewRunner(RunnerConfig{}).Sweep(ctx, smallSweepConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(rep.Rows, want.Rows) {
			t.Errorf("workers=%d: cached sweep rows differ from uncached single-worker sweep", workers)
		}
	}
}

// TestSweepCancellation interrupts a sweep mid-flight and checks the
// contract: the error wraps ctx.Err(), the partial Report holds only
// completed intervals in interval order, and no workers are leaked.
func TestSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := DefaultSweepConfig(NoFault)
	cfg.SetsPerInterval = 4
	cfg.MaxCandidates = 2000
	cfg.Intervals = workload.Intervals(0.1, 1.0, 0.1)
	cfg.Workers = 2
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	rep, err := SweepContext(ctx, cfg)
	if err == nil {
		t.Skip("sweep finished before cancellation; nothing to assert")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Errorf("error should mention interruption: %v", err)
	}
	if rep == nil {
		t.Fatal("canceled sweep must still return the partial report")
	}
	if len(rep.Rows) >= len(cfg.Intervals) {
		t.Errorf("partial report has %d rows for %d intervals", len(rep.Rows), len(cfg.Intervals))
	}
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].Interval.Lo <= rep.Rows[i-1].Interval.Lo {
			t.Errorf("partial rows out of interval order at %d", i)
		}
	}
	// Workers observe the cancellation and drain.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after drain", before, n)
	}
}

// TestPreCanceledContext: an already-dead context must abort both entry
// points promptly with an error wrapping context.Canceled.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, motivationSet(), Selective, RunConfig{HorizonMS: 100}); err == nil {
		t.Error("SimulateContext ignored a canceled context")
	} else if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("SimulateContext error does not wrap Canceled: %v", err)
	}
	if _, err := SweepContext(ctx, smallSweepConfig(2)); err == nil {
		t.Error("SweepContext ignored a canceled context")
	}
}

// BenchmarkSimulateSelective measures the allocation win of the session
// path: "direct" is the standalone pre-Runner behavior (fresh analyses,
// fresh engine state per run), "runner" reuses one session's analysis
// cache and scratch pool. The CI benchmark gate watches allocs/op here.
func BenchmarkSimulateSelective(b *testing.B) {
	s := motivationSet()
	cfg := RunConfig{HorizonMS: 500}
	b.Run("direct", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := simulate(ctx, s, Selective, cfg, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runner", func(b *testing.B) {
		ctx := context.Background()
		r := NewRunner(RunnerConfig{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Simulate(ctx, s, Selective, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulateST is the cheaper-policy companion: ST touches only
// the pattern table, so it shows the scratch pool's contribution alone.
func BenchmarkSimulateST(b *testing.B) {
	s := motivationSet()
	cfg := RunConfig{HorizonMS: 500}
	b.Run("direct", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := simulate(ctx, s, ST, cfg, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runner", func(b *testing.B) {
		ctx := context.Background()
		r := NewRunner(RunnerConfig{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Simulate(ctx, s, ST, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepReducedFig6a times the reduced Figure-6a sweep through a
// session, end to end — the wall-clock number recorded in BENCH_pr2.json.
func BenchmarkSweepReducedFig6a(b *testing.B) {
	cfg := DefaultSweepConfig(NoFault)
	cfg.SetsPerInterval = 5
	cfg.MaxCandidates = 1000
	ctx := context.Background()
	b.Run("runner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewRunner(RunnerConfig{})
			if _, err := r.Sweep(ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewRunner(RunnerConfig{CacheEntries: -1})
			if _, err := r.Sweep(ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// checkRunInvariants checks every run of a report — each set's counters
// per approach — against the run invariants over the set's horizon.
func checkRunInvariants(t *testing.T, seed uint64, rep *Report) {
	t.Helper()
	for _, row := range rep.Rows {
		for si, sr := range row.Sets {
			for _, a := range rep.Approaches {
				if bad := sr.Counters[a].CheckInvariants(sr.Horizon); len(bad) > 0 {
					t.Errorf("seed %d %v interval %v set %d %v: %s", seed, rep.Scenario, row.Interval, si, a, bad[0])
				}
			}
		}
	}
}

// lookups counts the analysis-cache lookups, hits plus misses, between
// two snapshots of one session's cache.
func lookups(before, after CacheStats) uint64 {
	return after.Hits + after.Misses - before.Hits - before.Misses
}

// TestSessionFiguresMatchFreshSessions runs Figures 6a, 6b and 6c over
// the full range on one session, then 6c and 6b again. Each report must
// equal a fresh session's, and the interval memo must serve every sweep
// after 6a without drawing a single candidate. The first 6b resumes all
// 48 of its runs (16 sets, 3 approaches) from 6a's forks, and the first
// 6c takes all 48 of its runs from 6b; the second 6c takes none and the
// second 6b resumes none, since each unit is handed on once. A fresh
// session, with no 6a before its 6b, resumes nothing. Only a set with a
// run from 0 looks up its offline analysis: a resumed run continues with
// its fork's policy, and a taken run does not run at all.
func TestSessionFiguresMatchFreshSessions(t *testing.T) {
	const seed = 2020
	ctx := context.Background()
	session := NewRunner(RunnerConfig{})
	figures := []struct {
		sc             Scenario
		taken, resumed uint64 // runs taken from 6b, and resumed from 6a, so far
		lookups        uint64 // analysis-cache lookups of this sweep
	}{
		{NoFault, 0, 0, 16}, {PermanentOnly, 0, 48, 0}, {PermanentAndTransient, 48, 48, 0},
		{PermanentAndTransient, 48, 48, 16}, {PermanentOnly, 48, 48, 16},
	}
	for fig, f := range figures {
		cfg := DefaultSweepConfig(f.sc)
		cfg.Seed = seed
		cfg.SetsPerInterval = 3
		cfg.MaxCandidates = 600
		before := session.CacheStats()
		got, err := session.Sweep(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := lookups(before, session.CacheStats()); n != f.lookups {
			t.Errorf("seed %d sweep %d (%v): %d analysis lookups, want %d", seed, fig, f.sc, n, f.lookups)
		}
		fresh := NewRunner(RunnerConfig{})
		want, err := fresh.Sweep(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := lookups(CacheStats{}, fresh.CacheStats()); n != 16 {
			t.Errorf("seed %d sweep %d (%v) on a fresh session: %d analysis lookups, want one per set, 16", seed, fig, f.sc, n)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("seed %d sweep %d (%v): the session's report differs from a fresh session's", seed, fig, f.sc)
		}
		checkRunInvariants(t, seed, got)
		n := uint64(len(cfg.Intervals))
		if hits, misses := session.memo.Counts(); hits != uint64(fig)*n || misses != n {
			t.Errorf("seed %d after sweep %d (%v): %d memo hits, %d misses; want %d and %d", seed, fig, f.sc, hits, misses, uint64(fig)*n, n)
		}
		if taken := session.memo.Taken(); taken != f.taken {
			t.Errorf("seed %d after sweep %d (%v): %d runs taken from 6b, want %d", seed, fig, f.sc, taken, f.taken)
		}
		if resumed := session.memo.Resumed(); resumed != f.resumed {
			t.Errorf("seed %d after sweep %d (%v): %d runs resumed from 6a, want %d", seed, fig, f.sc, resumed, f.resumed)
		}
		if st := fresh.MemoStats(); st.Taken != 0 || st.Resumed != 0 {
			t.Errorf("seed %d sweep %d (%v) on a fresh session: %d runs taken, %d resumed; want none", seed, fig, f.sc, st.Taken, st.Resumed)
		}
	}
}

// TestBenchmarkCycleDrawsOnce names the properties the Fig-6 benchmark
// workloads gain from: a cycle runs each interval as a one-interval
// sweep under no-fault, permanent and permanent+transient on one
// session, so only the first scenario's units draw — 5 intervals of 15
// units on fig6-accept, 3 of 9 on fig6-reject — the second scenario's
// runs all resume from the first's forks without looking up an offline
// analysis, and the third scenario's units take their runs from the
// second's. CacheEntries < 0 turns the session state off, and then every
// unit draws and every run runs from 0, each set after an analysis.
func TestBenchmarkCycleDrawsOnce(t *testing.T) {
	const seed = 2020
	all := workload.Intervals(0.1, 1.0, 0.1)
	cases := []struct {
		name        string
		first, last int
		entries     int
		draws       uint64
		taken       uint64 // permanent+transient runs taken from permanent ones
		resumed     uint64 // permanent runs resumed from no-fault ones
		lookups     uint64 // analysis lookups of the permanent scenario
	}{
		{"fig6-accept", 0, 5, 0, 5, 297, 300, 0}, // of 300 runs, 100 sets
		{"fig6-reject", 6, 9, 0, 3, 6, 6, 0},     // of 6 runs, 2 sets
		{"fig6-reject uncached", 6, 9, -1, 9, 0, 0, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner(RunnerConfig{CacheEntries: c.entries})
			for _, sc := range []Scenario{NoFault, PermanentOnly, PermanentAndTransient} {
				before := r.CacheStats()
				for off := c.first; off < c.last; off++ {
					cfg := DefaultSweepConfig(sc)
					cfg.Seed = seed
					cfg.Intervals = all[off : off+1]
					cfg.IntervalOffset = off
					cfg.Workers = 1
					rep, err := r.Sweep(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkRunInvariants(t, seed, rep)
				}
				if n := lookups(before, r.CacheStats()); sc == PermanentOnly && n != c.lookups {
					t.Errorf("seed %d: %d analysis lookups in the permanent-fault units, want %d", seed, n, c.lookups)
				}
			}
			units := uint64(3 * (c.last - c.first))
			st := r.MemoStats()
			if st.Misses != c.draws || st.Hits != units-c.draws {
				t.Errorf("seed %d: %d of %d units drew (%d hits), want %d", seed, st.Misses, units, st.Hits, c.draws)
			}
			if st.Taken != c.taken {
				t.Errorf("seed %d: %d runs taken from the permanent-fault units, want %d", seed, st.Taken, c.taken)
			}
			if st.Resumed != c.resumed {
				t.Errorf("seed %d: %d runs resumed from the no-fault units, want %d", seed, st.Resumed, c.resumed)
			}
		})
	}
}
