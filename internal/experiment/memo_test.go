package experiment

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/task"
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
	cfg.Approaches = []core.Approach{core.ST, core.Selective}
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
		{"approaches", func(c *Config) { c.Approaches = []core.Approach{core.DP} }, true},
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
