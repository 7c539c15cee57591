package dbp

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// exact runs Exact with the policy's own θ analysis, failing the test on
// an error.
func exact(t *testing.T, s *task.Set, init [][]bool) Verdict {
	t.Helper()
	v, err := Exact(s, policy.Options{}, init)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A single light task is trivially schedulable under DBP and the run
// must prove it with a cycle of length 1 starting immediately: every
// hyperperiod ends in the all-effective state.
func TestExactTrivial(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 4))
	v := exact(t, s, nil)
	if !v.Schedulable || !v.Exact {
		t.Fatalf("trivial set not proven schedulable: %+v", v)
	}
	if v.Transient != 0 || v.Cycle != 1 {
		t.Errorf("expected immediate length-1 cycle, got transient=%d cycle=%d", v.Transient, v.Cycle)
	}
	if v.ViolationTask != -1 {
		t.Errorf("ViolationTask = %d, want -1", v.ViolationTask)
	}
}

// Two tasks that each need the whole processor cannot both hold m == k;
// the test must refute with an exact verdict and name a culprit.
func TestExactOverload(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 8, 2, 2), task.New(1, 10, 10, 8, 2, 2))
	v := exact(t, s, nil)
	if v.Schedulable {
		t.Fatalf("overloaded hard set declared schedulable: %+v", v)
	}
	if !v.Exact {
		t.Errorf("a found violation is always exact: %+v", v)
	}
	if v.ViolationTask < 0 || v.ViolationIndex < 1 {
		t.Errorf("violation not attributed: %+v", v)
	}
}

// The same overload becomes feasible once the (m,k) constraints slacken:
// DBP alternates the distance-1 promotions so each task meets 1-in-2.
func TestExactDegradedFeasible(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 8, 1, 2), task.New(1, 10, 10, 8, 1, 2))
	v := exact(t, s, nil)
	if !v.Schedulable || !v.Exact {
		t.Fatalf("1-in-2 overload share should be DBP-schedulable: %+v", v)
	}
	if v.Cycle < 1 {
		t.Errorf("exact schedulable verdict must report a cycle: %+v", v)
	}
}

// Goossens' central point: the verdict depends on the initial
// k-sequences, not just the task parameters. This set is schedulable
// from the fresh all-effective start but a hostile seed — every window
// already at its miss budget — pushes both tasks to distance 1
// simultaneously and one of them must break.
func TestExactInitSensitivity(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 8, 1, 2), task.New(1, 10, 10, 8, 1, 2))
	fresh := exact(t, s, nil)
	if !fresh.Schedulable || !fresh.Exact {
		t.Fatalf("fresh start should be schedulable: %+v", fresh)
	}
	hostile := exact(t, s, [][]bool{{true, false}, {true, false}})
	if hostile.Schedulable {
		t.Fatalf("hostile seed (both windows one miss from violation) should refute: %+v", hostile)
	}
	if !hostile.Exact {
		t.Errorf("refutation must be exact: %+v", hostile)
	}
}

// With θ postponement the spare runs backup copies for distance-1 jobs;
// in a fault-free run the main normally completes first and cancels the
// backup, so on this set the backups must not change the verdict of
// plain DBP, which the reference walk runs with no backups (nil θ).
func TestExactThetaBackupsPreserveVerdict(t *testing.T) {
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	plain := walkExact(s, walkConfig{})
	theta := exact(t, s, nil)
	if plain.Schedulable != theta.Schedulable {
		t.Fatalf("backup copies flipped the fault-free verdict: plain=%+v theta=%+v", plain, theta)
	}
	if !theta.Exact {
		t.Errorf("the run with backups should still close a cycle: %+v", theta)
	}
}

// Nonzero offsets disable cycle detection; the test degrades to a
// bounded-horizon check over the whole budget and must say so via
// Exact=false (when it finds no violation).
func TestExactOffsetsInexact(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 4))
	s.Tasks[0].Offset = timeu.FromMillis(1)
	v := exact(t, s, nil)
	if !v.Schedulable {
		t.Fatalf("light offset set reported violation: %+v", v)
	}
	if v.Exact {
		t.Errorf("offset run cannot be exact without boundary states: %+v", v)
	}
}

// A saturated hyperperiod likewise forces the bounded-horizon fallback:
// the periods 101, 103 and 107 ms are co-prime, so their LCM (about
// 1,113 s) saturates the 10 s cap.
func TestExactSaturatedCapInexact(t *testing.T) {
	s := task.NewSet(task.New(0, 101, 101, 1, 1, 2), task.New(1, 103, 103, 1, 1, 2), task.New(2, 107, 107, 1, 1, 2))
	v := exact(t, s, nil)
	if !v.Schedulable {
		t.Fatalf("light co-prime set reported violation: %+v", v)
	}
	if v.Exact {
		t.Errorf("saturated-cap run must not claim exactness: %+v", v)
	}
}

// The test is deterministic: same inputs, same verdict, byte for byte.
func TestExactDeterministic(t *testing.T) {
	s := task.NewSet(
		task.New(0, 5, 4, 3, 2, 4),
		task.New(1, 10, 10, 3, 1, 2),
		task.New(2, 20, 15, 4, 1, 3),
	)
	init := [][]bool{{false}, nil, {true, false, true}}
	a := exact(t, s, init)
	for i := 0; i < 5; i++ {
		if b := exact(t, s, init); b != a {
			t.Fatalf("verdict drifted on rerun %d: %+v vs %+v", i, b, a)
		}
	}
}

// exactCase is one input of the exact test: a set, its offline products
// (θ for both Exact and the reference walk) and the initial windows.
type exactCase struct {
	set  *task.Set
	prod *analysis.Products
	init [][]bool
}

// newCase attaches the set's offline products, or reports false when the
// θ analysis refuses the set.
func newCase(s *task.Set, init [][]bool) (exactCase, bool) {
	prod := analysis.New(s, analysis.Options{})
	if _, err := prod.Postponement(); err != nil {
		return exactCase{}, false
	}
	return exactCase{set: s, prod: prod, init: init}, true
}

// ksweepRows are the four initial k-sequences of `mkablate -ksweep`, in
// its column order: fresh, single_miss, epat and worst.
var ksweepRows = []func(m, k int) []bool{
	nil,
	func(m, k int) []bool { return []bool{false} },
	func(m, k int) []bool {
		row := make([]bool, k)
		for j := 1; j <= k; j++ {
			row[j-1] = pattern.Mandatory(pattern.EPattern, j, m, k)
		}
		return row
	},
	func(m, k int) []bool {
		row := make([]bool, k)
		for j := 0; j < m; j++ {
			row[j] = true
		}
		return row
	},
}

// ksweepCorpus draws the inputs of the full-size `mkablate -ksweep -sets
// 25 -candidates 5000 -lo 0.2 -hi 1.0` at seed: unfiltered harmonic
// candidates per utilization interval, each under the four initial
// k-sequences.
func ksweepCorpus(seed uint64) []exactCase {
	wl := workload.DefaultConfig()
	wl.HarmonicPeriods = true
	rng := stats.NewRand(seed)
	var cases []exactCase
	for i, iv := range workload.Intervals(0.2, 1.0, 0.1) {
		gen := workload.NewGenerator(wl, seed+uint64(i))
		used := 0
		for drawn := 0; drawn < 5000 && used < 25; drawn++ {
			target := iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
			s, err := gen.Candidate(target)
			if err != nil {
				continue
			}
			if u := s.MKUtilization(); u < iv.Lo || u >= iv.Hi {
				continue
			}
			c, ok := newCase(s, nil)
			if !ok {
				continue
			}
			used++
			for _, row := range ksweepRows {
				var init [][]bool
				if row != nil {
					init = make([][]bool, s.N())
					for ti, tk := range s.Tasks {
						init[ti] = row(tk.M, tk.K)
					}
				}
				cases = append(cases, exactCase{set: s, prod: c.prod, init: init})
			}
		}
	}
	return cases
}

// randomCorpus draws n cases from randomSet and heavySet (every third),
// each task's window seeded with a random row of up to k outcomes or
// left fresh.
func randomCorpus(seed uint64, n int) []exactCase {
	rng := stats.NewRand(seed)
	var cases []exactCase
	for trial := 0; trial < n; trial++ {
		s := randomSet(rng)
		if trial%3 == 2 {
			s = heavySet(rng)
		}
		init := make([][]bool, s.N())
		for i, tk := range s.Tasks {
			if rng.Intn(3) == 0 {
				continue
			}
			init[i] = make([]bool, rng.Intn(tk.K+1))
			for j := range init[i] {
				init[i][j] = rng.Intn(2) == 1
			}
		}
		if c, ok := newCase(s, init); ok {
			cases = append(cases, c)
		}
	}
	return cases
}

// checkMatchesWalk compares Exact's whole verdict with the reference
// walk's on every case, under the same θ, and counts the corpus.
func checkMatchesWalk(t *testing.T, cases []exactCase) (refuted, inexact int) {
	t.Helper()
	for _, c := range cases {
		got, err := Exact(c.set, policy.Options{Offline: c.prod}, c.init)
		if err != nil {
			t.Fatalf("Exact: %v\nset:\n%v\ninit: %v", err, c.set, c.init)
		}
		an, _ := c.prod.Postponement()
		want := walkExact(c.set, walkConfig{Theta: an.Theta, Init: c.init})
		if got != want {
			t.Errorf("Exact %+v, walk %+v\nset:\n%v\ninit: %v", got, want, c.set, c.init)
		}
		if !want.Schedulable {
			refuted++
		}
		if !want.Exact {
			inexact++
		}
	}
	return refuted, inexact
}

// TestExactMatchesWalk pins Exact, which reads one engine run, against
// walkExact, the hand-written schedule walk that shares no code with the
// engine: the whole verdict must agree, not just Schedulable. The
// corpora are the full-size k-sequence sweep at two seeds and random
// sets with random initial windows.
func TestExactMatchesWalk(t *testing.T) {
	for _, seed := range []uint64{2020, 1} {
		t.Run(fmt.Sprintf("ksweep_seed_%d", seed), func(t *testing.T) {
			cases := ksweepCorpus(seed)
			refuted, inexact := checkMatchesWalk(t, cases)
			t.Logf("%d verdicts: %d refuted, %d inexact", len(cases), refuted, inexact)
			if len(cases) != 800 || refuted < 200 {
				t.Fatalf("corpus too weak: %d verdicts, %d refuted", len(cases), refuted)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		cases := randomCorpus(0x90055, 3000)
		refuted, inexact := checkMatchesWalk(t, cases)
		t.Logf("%d verdicts: %d refuted, %d inexact", len(cases), refuted, inexact)
		if len(cases) < 2000 || refuted < 100 {
			t.Fatalf("corpus too weak: %d verdicts, %d refuted", len(cases), refuted)
		}
	})
}

// TestExactTieNamesLowestTask pins the verdict's attribution when two
// windows break at one instant. The set comes from the k-sequence sweep
// at seed 99, under the worst seed, which starts every task at distance
// 1: τ1's 32.6 ms job holds the primary, and the first jobs of τ4 and τ5
// both miss at their common deadline, 5 ms. The engine settles τ5's miss
// first; the verdict names τ4 (ID 3).
func TestExactTieNamesLowestTask(t *testing.T) {
	ms := timeu.Millisecond
	s := task.NewSet(
		task.Task{Period: 40 * ms, Deadline: 40 * ms, WCET: 32597, M: 1, K: 8},
		task.Task{Period: 10 * ms, Deadline: 10 * ms, WCET: 272, M: 3, K: 4},
		task.Task{Period: 40 * ms, Deadline: 40 * ms, WCET: 17632, M: 1, K: 10},
		task.Task{Period: 5 * ms, Deadline: 5 * ms, WCET: 301, M: 4, K: 5},
		task.Task{Period: 5 * ms, Deadline: 5 * ms, WCET: 50, M: 1, K: 2},
	)
	worst := ksweepRows[len(ksweepRows)-1]
	init := make([][]bool, s.N())
	for i, tk := range s.Tasks {
		init[i] = worst(tk.M, tk.K)
	}
	c, ok := newCase(s, init)
	if !ok {
		t.Fatal("θ analysis refused the set")
	}

	// The premise: with no budget and no boundary to sample, exactPolicy
	// is MKSS-DBP seeded with init. Its first jobs of τ4 and τ5 both miss,
	// and a miss breaks every worst-seeded window.
	seeded := &exactPolicy{dbpPolicy: dbpPolicy{opts: policy.Options{Offline: c.prod}}, init: init, boundary: timeu.Infinity}
	eng, err := sim.New(s, seeded, sim.Config{Horizon: 40 * ms})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 4} {
		if r.Outcomes[id][0] {
			t.Fatalf("premise broken: task %d's first job met its deadline", id+1)
		}
	}

	want := Verdict{ViolationTask: 3, ViolationIndex: 1, Exact: true}
	got, err := Exact(s, policy.Options{Offline: c.prod}, init)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Exact %+v, want %+v", got, want)
	}
	checkMatchesWalk(t, []exactCase{c})
}

// FuzzExactMatchesWalk checks Exact's whole verdict against the
// reference walk's on small arbitrary sets (see fuzzExactCase). The seed
// corpus holds the table tests' sets and TestExactTieNamesLowestTask's.
func FuzzExactMatchesWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := newCase(fuzzExactCase(data))
		if !ok {
			t.Skip("θ analysis refused the set")
		}
		checkMatchesWalk(t, []exactCase{c})
	})
}

// fuzzExactCase decodes data into a set of 1–5 tasks and its initial
// windows. Byte 0 picks the count, and the low bit of byte 1 turns on
// offsets. Each task then reads 11 bytes (missing bytes read as zero): a
// period from {5, 10, 20, 40} ms, a deadline in [1 µs, P] (P less a
// slack), a WCET in [1 µs, D], k in [1, 10], m in [1, k], an init row of
// up to k outcomes (length 0 means nil) and an offset in whole ms below
// P. The hyperperiod is at most 40 ms, so a run without offsets closes
// its cycle or breaks a window within 2.56 s of simulated time.
func fuzzExactCase(data []byte) (*task.Set, [][]bool) {
	next := func(n int) uint64 {
		var b [8]byte
		copy(b[:n], data)
		data = data[min(n, len(data)):]
		return binary.LittleEndian.Uint64(b[:])
	}
	periods := [...]timeu.Time{5 * timeu.Millisecond, 10 * timeu.Millisecond, 20 * timeu.Millisecond, 40 * timeu.Millisecond}
	tasks := make([]task.Task, 1+next(1)%5)
	offsets := next(1)&1 == 1
	init := make([][]bool, len(tasks))
	for i := range tasks {
		p := periods[next(1)%4]
		d := p - timeu.Time(next(2))%p
		c := 1 + timeu.Time(next(2))%d
		k := 1 + int(next(1)%10)
		m := 1 + int(next(1))%k
		if n, bits := int(next(1))%(k+1), next(2); n > 0 {
			init[i] = make([]bool, n)
			for j := range init[i] {
				init[i][j] = bits>>j&1 == 1
			}
		}
		off := timeu.Time(next(1)) * timeu.Millisecond % p
		if !offsets {
			off = 0
		}
		tasks[i] = task.Task{Period: p, Deadline: d, WCET: c, M: m, K: k, Offset: off}
	}
	return task.NewSet(tasks...), init
}
