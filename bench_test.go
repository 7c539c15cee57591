// Benchmarks regenerating every table/figure of the paper, plus ablation
// benches for the design choices called out in DESIGN.md. Figure 6
// benches run a reduced sweep per iteration and report the figure's
// series as custom metrics (normalized energy per approach and the
// selective-over-DP gain); the full-fidelity series is produced by
// cmd/mkbench. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/workload"
)

func motivationSet() *Set {
	return NewSet(NewTask(5, 4, 3, 2, 4), NewTask(10, 10, 3, 1, 2))
}

func selectiveSet() *Set {
	return NewSet(NewTask(5, 2.5, 2, 2, 4), NewTask(4, 4, 2, 2, 4))
}

func benchWorked(b *testing.B, s *Set, a Approach, horizonMS, wantEnergy float64) {
	b.Helper()
	var energy float64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(s, a, RunConfig{HorizonMS: horizonMS})
		if err != nil {
			b.Fatal(err)
		}
		energy = res.ActiveEnergy()
	}
	if energy != wantEnergy {
		b.Fatalf("energy = %v, want %v (paper)", energy, wantEnergy)
	}
	b.ReportMetric(energy, "energy-units")
}

// BenchmarkFig1 — the DP schedule of Figure 1 (15 units in [0,20]).
func BenchmarkFig1(b *testing.B) { benchWorked(b, motivationSet(), DP, 20, 15) }

// BenchmarkFig2 — dynamic patterns on the same set (12 units).
func BenchmarkFig2(b *testing.B) { benchWorked(b, motivationSet(), Selective, 20, 12) }

// BenchmarkFig3 — greedy on the §III set (20 units in [0,25]).
func BenchmarkFig3(b *testing.B) { benchWorked(b, selectiveSet(), Greedy, 25, 20) }

// BenchmarkFig4 — selective on the §III set (14 units).
func BenchmarkFig4(b *testing.B) { benchWorked(b, selectiveSet(), Selective, 25, 14) }

// BenchmarkFig5Postponement — the offline θ analysis of Definitions 2–5.
func BenchmarkFig5Postponement(b *testing.B) {
	s := NewSet(NewTask(10, 10, 3, 2, 3), NewTask(15, 15, 8, 1, 2))
	var thetas []Time
	for i := 0; i < b.N; i++ {
		var err error
		thetas, err = PostponementIntervals(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	if thetas[0].Millis() != 7 || thetas[1].Millis() != 4 {
		b.Fatalf("theta = %v, want 7ms/4ms", thetas)
	}
}

// reducedFig6 is the reduced Figure 6 sweep of the Fig-6 benches: 4 sets
// or 1200 candidates per interval over [0.2, 0.7).
func reducedFig6(sc Scenario) SweepConfig {
	cfg := DefaultSweepConfig(sc)
	cfg.SetsPerInterval = 4
	cfg.MaxCandidates = 1200
	cfg.Intervals = workload.Intervals(0.2, 0.7, 0.1)
	return cfg
}

// benchFig6 runs the sweep cfg per iteration and reports the series the
// paper plots: per-approach normalized energy (averaged over the sweep)
// and the maximal selective-over-DP reduction.
func benchFig6(b *testing.B, cfg SweepConfig) {
	b.Helper()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	means := map[Approach]float64{}
	n := 0
	for _, row := range rep.Rows {
		if len(row.Sets) == 0 {
			continue
		}
		n++
		for _, a := range rep.Approaches {
			means[a] += row.NormMean[a]
		}
	}
	if n == 0 {
		b.Fatal("sweep produced no populated intervals")
	}
	b.ReportMetric(means[DP]/float64(n), "dp/st")
	b.ReportMetric(means[Selective]/float64(n), "selective/st")
	gain, _ := rep.MaxGain(Selective, DP)
	b.ReportMetric(100*gain, "max-gain-vs-dp-%")
}

// BenchmarkFig6aNoFault — Figure 6(a): energy under no faults.
func BenchmarkFig6aNoFault(b *testing.B) { benchFig6(b, reducedFig6(NoFault)) }

// BenchmarkSimulateSweepFig6a is the wall-clock-gated perf benchmark: the
// same reduced Figure 6(a) sweep as BenchmarkFig6aNoFault, under the
// BenchmarkSimulate* name prefix so scripts/benchgate.sh gates its ns/op
// against results/bench_baseline.txt (generous margin — shared runners
// are noisy; the gate exists to catch order-of-magnitude engine
// regressions that allocs/op cannot see). The optimization history behind
// the current baseline is ledgered under hypotheses/.
func BenchmarkSimulateSweepFig6a(b *testing.B) {
	b.ReportAllocs()
	benchFig6(b, reducedFig6(NoFault))
}

// BenchmarkSimulateSweepFig6Reject gates the rejecting side of the sweep
// that BenchmarkSimulateSweepFig6a never reaches: the paper's settings
// (20 sets, 5000 candidates, seed 2020) over [0.7, 1.0), seeded as
// intervals 7–9 of the full sweep, so its rows are the 2/0/0-set rows of
// results/fig6a.csv. Nearly all of its time is candidate generation and
// the R-pattern filter.
func BenchmarkSimulateSweepFig6Reject(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultSweepConfig(NoFault)
	cfg.Intervals = cfg.Intervals[6:]
	cfg.IntervalOffset = 6
	benchFig6(b, cfg)
}

// BenchmarkFig6bPermanent — Figure 6(b): one permanent fault.
func BenchmarkFig6bPermanent(b *testing.B) { benchFig6(b, reducedFig6(PermanentOnly)) }

// BenchmarkFig6cPermTransient — Figure 6(c): permanent + transient.
func BenchmarkFig6cPermTransient(b *testing.B) { benchFig6(b, reducedFig6(PermanentAndTransient)) }

// BenchmarkSelectiveDispatch backs the paper's O(n) dispatch-complexity
// claim for Algorithm 1: simulated wall time per task should scale
// roughly linearly in the number of tasks (ns/op divided by tasks is the
// metric to watch across sub-benchmarks).
func BenchmarkSelectiveDispatch(b *testing.B) {
	for _, n := range []int{5, 10, 20, 40} {
		b.Run(map[int]string{5: "n=5", 10: "n=10", 20: "n=20", 40: "n=40"}[n], func(b *testing.B) {
			tasks := make([]Task, n)
			for i := range tasks {
				// Light per-task load so the set stays schedulable as n
				// grows: C scales down with n.
				tasks[i] = NewTask(10+float64(i%7), 10+float64(i%7), 4.0/float64(n), 2, 4)
			}
			s := NewSet(tasks...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(s, Selective, RunConfig{HorizonMS: 500}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObservability guards the observability layer's hot-path cost:
// "baseline" is the plain simulation (counters only, no sink — this must
// stay indistinguishable from the pre-metrics engine), "collector" and
// "jsonl" attach the two stock sinks. Compare ns/op and allocs/op of
// baseline against the sink variants to see the cost of observation;
// baseline regressions here mean the no-sink guard broke.
func BenchmarkObservability(b *testing.B) {
	s := motivationSet()
	cfg := RunConfig{HorizonMS: 500}
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Simulate(s, Selective, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("collector", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := cfg
			cfg.Sink = NewEventCollector()
			if _, err := Simulate(s, Selective, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jsonl", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := cfg
			cfg.Sink = NewJSONLSink(io.Discard)
			if _, err := Simulate(s, Selective, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation benches: each reruns the reduced Figure 6(a) sweep with one
// design ingredient of Algorithm 1 changed, reporting the same metrics so
// the contribution of each ingredient is visible.

func benchAblation(b *testing.B, opts core.Options) {
	b.Helper()
	cfg := DefaultSweepConfig(fault.NoFault)
	cfg.SetsPerInterval = 4
	cfg.MaxCandidates = 1200
	cfg.Intervals = workload.Intervals(0.2, 0.7, 0.1)
	cfg.CoreOpts = opts
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var mean float64
	n := 0
	for _, row := range rep.Rows {
		if len(row.Sets) > 0 {
			mean += row.NormMean[Selective]
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(mean/float64(n), "selective/st")
	}
}

// BenchmarkAblationNoAlternation — optional jobs all on the primary
// instead of alternating (principle (ii) of Algorithm 1 disabled).
func BenchmarkAblationNoAlternation(b *testing.B) {
	benchAblation(b, core.Options{NoAlternation: true})
}

// BenchmarkAblationFDThreshold2 — select optional jobs with FD ≤ 2
// instead of exactly 1 (more eager optional execution).
func BenchmarkAblationFDThreshold2(b *testing.B) {
	benchAblation(b, core.Options{FDThreshold: 2})
}

// BenchmarkAblationThetaVsY — backups postponed by the promotion
// interval Yi instead of θi (Defs. 2–5 disabled).
func BenchmarkAblationThetaVsY(b *testing.B) {
	benchAblation(b, core.Options{UsePromotionForTheta: true})
}

// BenchmarkAblationEPattern — evenly-distributed static pattern instead
// of the deeply-red R-pattern for the baselines and the θ analysis.
func BenchmarkAblationEPattern(b *testing.B) {
	benchAblation(b, core.Options{Pattern: pattern.EPattern})
}
