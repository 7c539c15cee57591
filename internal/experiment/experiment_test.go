package experiment

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

func smallConfig(sc fault.Scenario) Config {
	cfg := DefaultConfig(sc)
	cfg.SetsPerInterval = 2
	cfg.MaxCandidates = 400
	cfg.Intervals = workload.Intervals(0.3, 0.5, 0.1)
	cfg.Workers = 2
	return cfg
}

func TestRunProducesRows(t *testing.T) {
	var progress bytes.Buffer
	cfg := smallConfig(fault.NoFault)
	cfg.Progress = &progress
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row.Sets) != 2 {
			t.Errorf("interval %v: %d sets", row.Interval, len(row.Sets))
		}
		for _, sr := range row.Sets {
			if sr.Active[policy.ST] <= 0 {
				t.Error("ST active energy must be positive")
			}
			if math.Abs(sr.Norm[policy.ST]-1) > 1e-12 {
				t.Errorf("ST norm = %v", sr.Norm[policy.ST])
			}
		}
	}
	if !strings.Contains(progress.String(), "interval") {
		t.Error("progress output missing")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(smallConfig(fault.PermanentOnly))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(fault.PermanentOnly))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for _, ap := range a.Approaches {
			if a.Rows[i].NormMean[ap] != b.Rows[i].NormMean[ap] {
				t.Fatalf("interval %d approach %v: %v != %v",
					i, ap, a.Rows[i].NormMean[ap], b.Rows[i].NormMean[ap])
			}
		}
	}
}

// TestWorkersDefaultNumCPU pins the Workers=0 default to the machine's
// core count (the hardcoded 4 it replaced under-used larger hosts).
func TestWorkersDefaultNumCPU(t *testing.T) {
	cfg := DefaultConfig(fault.NoFault)
	if cfg.Workers != 0 {
		t.Fatalf("DefaultConfig.Workers = %d, want 0 (auto)", cfg.Workers)
	}
	// Run normalizes in place on its copy; verify via the observable
	// behavior instead: a zero-Workers sweep must succeed and match an
	// explicit runtime.NumCPU() sweep exactly.
	auto := smallConfig(fault.NoFault)
	auto.Workers = 0
	explicit := smallConfig(fault.NoFault)
	explicit.Workers = runtime.NumCPU()
	a, err := Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if aj, bj := mustJSON(t, a), mustJSON(t, b); aj != bj {
		t.Errorf("Workers=0 sweep differs from Workers=NumCPU sweep:\n%s\n---\n%s", aj, bj)
	}
}

// TestWorkersInvariance is the satellite gate for the Workers fix: the
// sweep result (series and counters) must be identical for one worker
// and many, given the same seed — parallelism must never leak into the
// numbers.
func TestWorkersInvariance(t *testing.T) {
	run := func(workers int) *Report {
		t.Helper()
		cfg := smallConfig(fault.PermanentAndTransient)
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(8)
	if a, b := mustJSON(t, serial), mustJSON(t, parallel); a != b {
		t.Fatalf("aggregates differ between Workers=1 and Workers=8:\n%s\n---\n%s", a, b)
	}
	for i := range serial.Rows {
		for _, ap := range serial.Approaches {
			if serial.Rows[i].Counters[ap] != parallel.Rows[i].Counters[ap] {
				t.Errorf("interval %d approach %v: counters differ:\n%+v\n%+v",
					i, ap, serial.Rows[i].Counters[ap], parallel.Rows[i].Counters[ap])
			}
		}
	}
}

func mustJSON(t *testing.T, r *Report) string {
	t.Helper()
	data, err := r.BenchJSON("", Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestEnsureST(t *testing.T) {
	got := ensureST([]policy.Approach{policy.DP, policy.Selective})
	if got[0] != policy.ST {
		t.Errorf("ST not prepended: %v", got)
	}
	same := []policy.Approach{policy.Selective, policy.ST}
	if len(ensureST(same)) != 2 {
		t.Error("ST duplicated")
	}
}

func TestSimHorizon(t *testing.T) {
	// Hyperperiod 20ms, min 500ms -> 25 hyperperiods = 500ms.
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	h := simHorizon(s, 500*timeu.Millisecond, 2*timeu.Second)
	if h != 500*timeu.Millisecond {
		t.Errorf("horizon = %v, want 500ms", h)
	}
	if h%timeu.FromMillis(20) != 0 {
		t.Errorf("horizon %v not a multiple of the hyperperiod", h)
	}
	// Cap binds.
	h = simHorizon(s, 3*timeu.Second, 2*timeu.Second)
	if h != 2*timeu.Second {
		t.Errorf("capped horizon = %v", h)
	}
	// Saturated hyperperiod -> cap.
	big := task.NewSet(task.New(0, 7, 7, 1, 2, 11), task.New(1, 13, 13, 1, 3, 17), task.New(2, 23, 23, 1, 4, 19))
	h = simHorizon(big, 500*timeu.Millisecond, 2*timeu.Second)
	if h != 2*timeu.Second {
		t.Errorf("saturated horizon = %v, want cap", h)
	}
}

func TestMaxGain(t *testing.T) {
	rep := &Report{
		Approaches: []policy.Approach{policy.ST, policy.DP, policy.Selective},
		Rows: []Row{
			{
				Interval: workload.Interval{Lo: 0.2, Hi: 0.3},
				Sets:     make([]SetResult, 1),
				NormMean: map[policy.Approach]float64{policy.ST: 1, policy.DP: 0.8, policy.Selective: 0.6},
			},
			{
				Interval: workload.Interval{Lo: 0.3, Hi: 0.4},
				Sets:     make([]SetResult, 1),
				NormMean: map[policy.Approach]float64{policy.ST: 1, policy.DP: 0.5, policy.Selective: 0.45},
			},
		},
	}
	gain, at := rep.MaxGain(policy.Selective, policy.DP)
	if math.Abs(gain-0.25) > 1e-12 {
		t.Errorf("gain = %v, want 0.25", gain)
	}
	if at.Lo != 0.2 {
		t.Errorf("at = %v", at)
	}

	// Selective behind DP in every populated interval: the gain is the
	// smallest deficit, at its interval, and the table prints no headline.
	// An empty interval counts for nothing.
	rep.Rows = append(rep.Rows, Row{Interval: workload.Interval{Lo: 0.4, Hi: 0.5}})
	rep.Rows[0].NormMean = map[policy.Approach]float64{policy.ST: 1, policy.DP: 0.5, policy.Selective: 0.6}
	rep.Rows[1].NormMean = map[policy.Approach]float64{policy.ST: 1, policy.DP: 0.8, policy.Selective: 0.84}
	gain, at = rep.MaxGain(policy.Selective, policy.DP)
	if math.Abs(gain-(-0.05)) > 1e-12 || at.Lo != 0.3 {
		t.Errorf("all-negative: gain %v at %v, want -0.05 at [0.30,0.40)", gain, at)
	}
	if strings.Contains(rep.Table(), "max energy reduction") {
		t.Errorf("all-negative table prints a headline:\n%s", rep.Table())
	}
	if gain, at := (&Report{}).MaxGain(policy.Selective, policy.DP); gain != 0 || at != (workload.Interval{}) {
		t.Errorf("no populated interval: gain %v at %v, want 0 at the zero interval", gain, at)
	}
}

func TestTableAndCSVFormat(t *testing.T) {
	rep, err := Run(smallConfig(fault.NoFault))
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Table()
	for _, want := range []string{"MKSS-ST", "MKSS-DP", "MKSS-selective", "[0.30,0.40)", "no-fault"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "util_mid,sets,mkss_st,mkss_dp,mkss_selective" {
		t.Errorf("csv header = %q", lines[0])
	}
}

func TestFaultScenarioIncreasesNothingWeird(t *testing.T) {
	// Under a permanent fault the normalized energies must stay in (0,
	// 1.05] — the survivor can't consume more than both processors did.
	rep, err := Run(smallConfig(fault.PermanentOnly))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		for _, sr := range row.Sets {
			for a, norm := range sr.Norm {
				if norm <= 0 || norm > 1.6 {
					t.Errorf("approach %v: suspicious normalized energy %v", a, norm)
				}
			}
		}
	}
}

func TestRunSetSharesPermanentFault(t *testing.T) {
	// The same fault seed must give every approach the same permanent
	// fault instant — verified indirectly: runSet is deterministic and
	// ST/DP/selective all see a fault (their energies differ from the
	// fault-free run).
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 4, 1, 2))
	cfg := smallConfig(fault.PermanentOnly)
	apps := []policy.Approach{policy.ST, policy.DP, policy.Selective}
	// A one-scratch roster, as a one-worker sweep holds.
	scratches := make(chan *sim.Scratch, 1)
	scratches <- sim.NewScratch()
	a, err := runSet(context.Background(), s, apps, cfg, 77, scratches, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSet(context.Background(), s, apps, cfg, 77, scratches, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range apps {
		if a.Active[ap] != b.Active[ap] {
			t.Errorf("%v: %v != %v", ap, a.Active[ap], b.Active[ap])
		}
	}
}

// TestGenerateChunksMatchOneCall pins that drawing an interval in
// chunks of generateChunk candidates keeps the same sets and candidate
// count as one GenerateInterval call, on accepting and rejecting
// intervals and on budgets that are not a multiple of the chunk.
func TestGenerateChunksMatchOneCall(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, iv := range workload.Intervals(0.1, 1.0, 0.1) {
			for _, budget := range []int{generateChunk - 1, 3*generateChunk + 17} {
				want := workload.NewGenerator(workload.DefaultConfig(), seed).GenerateInterval(iv, 20, budget)
				got, err := generate(context.Background(), workload.NewGenerator(workload.DefaultConfig(), seed), iv, 20, budget)
				if err != nil {
					t.Fatal(err)
				}
				if got.Candidates != want.Candidates || len(got.Sets) != len(want.Sets) {
					t.Fatalf("seed %d %v budget %d: %d sets / %d candidates, want %d / %d",
						seed, iv, budget, len(got.Sets), got.Candidates, len(want.Sets), want.Candidates)
				}
				for i := range want.Sets {
					if got.Sets[i].String() != want.Sets[i].String() {
						t.Fatalf("seed %d %v budget %d: set %d differs", seed, iv, budget, i)
					}
				}
			}
		}
	}
}

// TestGenerateStopsWhenCanceled pins that a canceled context stops
// generation before it draws another chunk.
func TestGenerateStopsWhenCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen := workload.NewGenerator(workload.DefaultConfig(), 1)
	res, err := generate(ctx, gen, workload.Interval{Lo: 0.9, Hi: 1.0}, 1_000_000, 1<<40)
	if !errors.Is(err, context.Canceled) || res.Candidates != 0 {
		t.Fatalf("canceled generate drew %d candidates, err %v", res.Candidates, err)
	}
}
