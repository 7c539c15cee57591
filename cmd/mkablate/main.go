// Command mkablate runs the ablation study behind DESIGN.md: the reduced
// Figure 6(a) sweep with one ingredient of Algorithm 1 changed at a time,
// so the contribution of each design choice is visible side by side:
//
//   - paper        — Algorithm 1 as published
//   - no-alternate — eligible optional jobs all on the primary
//   - fd<=2        — eligibility threshold raised from FD=1 to FD<=2
//   - theta=Y      — backups postponed by the promotion interval Yi
//     instead of the Defs. 2–5 interval θi
//   - e-pattern    — evenly-distributed static pattern instead of R
//   - dp-background— the DP baseline replaced by textbook dual-priority
//     (backups also run before promotion)
//
// A second mode, -ksweep, produces the Fig-7 family instead: Goossens'
// exact DBP schedulability test (dbp.Exact) evaluated per utilization
// bucket under four initial k-sequence seeds — fresh (all-effective),
// single-miss, E-pattern-shaped, and worst (every window one miss from
// violation) — quantifying how much of DBP's schedulability is owed to
// the system starting clean.
//
// Usage:
//
//	mkablate [-sets 8] [-candidates 2000] [-seed 2020] [-lo 0.2] [-hi 0.8]
//	mkablate -ksweep [-sets 6] [-candidates 400] [...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/sim/policy"
	"repro/internal/sim/policy/dbp"
	"repro/internal/stats"
	"repro/internal/workload"
)

type variant struct {
	name string
	opts policy.Options
	// approaches overrides the compared approaches (nil = ST/DP/selective).
	approaches []repro.Approach
}

func main() {
	var (
		sets       = flag.Int("sets", 8, "schedulable sets per interval")
		candidates = flag.Int("candidates", 2000, "max candidates per interval")
		seed       = flag.Uint64("seed", 2020, "master seed")
		lo         = flag.Float64("lo", 0.2, "lowest utilization bound")
		hi         = flag.Float64("hi", 0.8, "highest utilization bound")
		harmonic   = flag.Bool("harmonic", false, "divisor-friendly periods (keeps the theta analysis exact)")
		scenario   = flag.String("scenario", "none", "fault scenario: none | permanent | permanent+transient")
		quiet      = flag.Bool("q", false, "suppress progress")
		ksweep     = flag.Bool("ksweep", false, "k-sequence sensitivity sweep (Fig-7 CSV on stdout) instead of the ablation table")
	)
	flag.Parse()

	if *ksweep {
		runKSweep(*sets, *candidates, *seed, *lo, *hi, *quiet)
		return
	}

	variants := []variant{
		{name: "paper", opts: policy.Options{}},
		{name: "no-alternate", opts: policy.Options{NoAlternation: true}},
		{name: "fd<=2", opts: policy.Options{FDThreshold: 2}},
		{name: "theta=Y", opts: policy.Options{UsePromotionForTheta: true}},
		{name: "e-pattern", opts: policy.Options{Pattern: pattern.EPattern}},
		{name: "dp-background", opts: policy.Options{},
			approaches: []repro.Approach{repro.ST, repro.DPBackground, repro.Selective}},
	}

	sc, err := repro.ParseScenario(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkablate: %v\n", err)
		os.Exit(2)
	}

	// All variants vary only the policy options, not the workload, so one
	// session's analysis cache serves every variant that shares Pattern.
	// SIGINT and SIGTERM both cancel gracefully (partial rows are printed).
	runner := repro.NewRunner(repro.RunnerConfig{})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("%-14s %12s %12s %14s\n", "variant", "dp/st", "selective/st", "max-gain-vs-dp")
	for _, v := range variants {
		cfg := repro.DefaultSweepConfig(sc)
		cfg.Seed = *seed
		cfg.SetsPerInterval = *sets
		cfg.MaxCandidates = *candidates
		cfg.Intervals = workload.Intervals(*lo, *hi, 0.1)
		cfg.CoreOpts = v.opts
		if *harmonic {
			wl := workload.DefaultConfig()
			wl.HarmonicPeriods = true
			cfg.Workload = wl
		}
		if v.approaches != nil {
			cfg.Approaches = v.approaches
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s...\n", v.name)
		}
		t0 := time.Now() //mklint:allow determinism — wall-clock timer for operator progress, not simulated time
		rep, err := runner.Sweep(ctx, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "mkablate: interrupted during %s — table above is incomplete\n", v.name)
			} else {
				fmt.Fprintf(os.Stderr, "mkablate: %s: %v\n", v.name, err)
			}
			os.Exit(1)
		}
		dpApproach := repro.DP
		if v.approaches != nil {
			dpApproach = repro.DPBackground
		}
		dpMean, selMean := sweepMeans(rep, dpApproach)
		gain, at := rep.MaxGain(repro.Selective, dpApproach)
		fmt.Printf("%-14s %12.3f %12.3f %9.1f%% at %v   (%v)\n",
			v.name, dpMean, selMean, 100*gain, at,
			time.Since(t0).Round(time.Millisecond)) //mklint:allow determinism — reporting the variant's wall-clock duration
	}
}

// kseed names one initial-window shape of the k-sequence sweep.
type kseed struct {
	name string
	// row builds the Init row for an (m,k) task: outcomes recorded onto a
	// fresh all-effective window, oldest first. Nil means the fresh start.
	row func(m, k int) []bool
}

var kseeds = []kseed{
	{name: "fresh", row: nil},
	// One miss just happened; every window is otherwise clean.
	{name: "single_miss", row: func(m, k int) []bool { return []bool{false} }},
	// The evenly-distributed E-pattern realized verbatim: mandatory
	// positions effective, optional positions missed, spread across the
	// window. (The R-pattern's realization — m effectives first, then
	// the misses — is exactly the worst seed below, so it is not a
	// separate column.)
	{name: "epat", row: func(m, k int) []bool {
		row := make([]bool, k)
		for j := 1; j <= k; j++ {
			row[j-1] = pattern.Mandatory(pattern.EPattern, j, m, k)
		}
		return row
	}},
	// Worst admissible history: the m oldest outcomes effective, the k−m
	// newest missed — every task starts at distance 1.
	{name: "worst", row: func(m, k int) []bool {
		row := make([]bool, k)
		for j := 0; j < m; j++ {
			row[j] = true
		}
		return row
	}},
}

// runKSweep generates harmonic-period workloads per utilization bucket
// and reports, for each initial-k-sequence seed, the fraction the exact
// DBP test proves schedulable. Unlike the energy sweep, the candidates
// are NOT pre-filtered by the Theorem-1 R-pattern test: that filter
// guarantees survival of the synchronous all-mandatory start, which
// dominates every hostile seed and would flatten the figure — the whole
// point is to see where DBP holds beyond the static-pattern regime.
// Harmonic periods keep the hyperperiods small so the exact test
// closes its cycle (exact verdicts); the rare inexact verdict is counted
// by its bounded-horizon answer.
func runKSweep(sets, candidates int, seed uint64, lo, hi float64, quiet bool) {
	wl := workload.DefaultConfig()
	wl.HarmonicPeriods = true
	intervals := workload.Intervals(lo, hi, 0.1)

	fmt.Print("util_mid,sets")
	for _, ks := range kseeds {
		fmt.Print(",", ks.name)
	}
	fmt.Println()
	rng := stats.NewRand(seed)
	for i, iv := range intervals {
		if !quiet {
			fmt.Fprintf(os.Stderr, "ksweep %v...\n", iv)
		}
		gen := workload.NewGenerator(wl, seed+uint64(i))
		used := 0
		pass := make([]int, len(kseeds))
		for drawn := 0; drawn < candidates && used < sets; drawn++ {
			target := iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
			s, err := gen.Candidate(target)
			if err != nil {
				continue
			}
			if u := s.MKUtilization(); u < iv.Lo || u >= iv.Hi {
				continue
			}
			// θ always computes for a valid set (divergent tasks fall
			// back to the safe promotion interval). The products hand it
			// to every seed's run.
			prod := analysis.New(s, analysis.Options{})
			if _, err := prod.Postponement(); err != nil {
				continue
			}
			used++
			for ki, ks := range kseeds {
				var init [][]bool
				if ks.row != nil {
					init = make([][]bool, s.N())
					for ti := range s.Tasks {
						init[ti] = ks.row(s.Tasks[ti].M, s.Tasks[ti].K)
					}
				}
				v, err := dbp.Exact(s, policy.Options{Offline: prod}, init)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mkablate: ksweep: %v\n", err)
					os.Exit(1)
				}
				if v.Schedulable {
					pass[ki]++
				}
			}
		}
		fmt.Printf("%.2f,%d", iv.Mid(), used)
		for ki := range kseeds {
			frac := 0.0
			if used > 0 {
				frac = float64(pass[ki]) / float64(used)
			}
			fmt.Printf(",%.3f", frac)
		}
		fmt.Println()
	}
}

func sweepMeans(rep *repro.Report, dp repro.Approach) (dpMean, selMean float64) {
	n := 0
	for _, row := range rep.Rows {
		if len(row.Sets) == 0 {
			continue
		}
		n++
		dpMean += row.NormMean[dp]
		selMean += row.NormMean[repro.Selective]
	}
	if n > 0 {
		dpMean /= float64(n)
		selMean /= float64(n)
	}
	return dpMean, selMean
}
