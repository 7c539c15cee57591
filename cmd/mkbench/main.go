// Command mkbench regenerates the paper's evaluation (Figure 6): the
// normalized-energy-vs-(m,k)-utilization series for MKSS-ST, MKSS-DP and
// MKSS-selective under the three fault scenarios.
//
// Usage:
//
//	mkbench -fig 6a                  # no faults      (paper Fig. 6a)
//	mkbench -fig 6b                  # permanent      (paper Fig. 6b)
//	mkbench -fig 6c                  # perm+transient (paper Fig. 6c)
//	mkbench -fig all -sets 20 -csv out/   # everything, CSVs for plotting
//	mkbench -fig 6a -greedy          # include the §III greedy straw-man
//	mkbench -fig 6a -json            # also write BENCH_6a.json
//	mkbench -fig 6a -sets 3 -json -jsonout BENCH_ci.json   # CI smoke
//
// -json emits the versioned machine-readable document (schema
// "mkss-bench/v1"): the per-interval normalized-energy series plus the
// aggregated observability counters and the sweep's wall-clock time,
// suitable for tracking across commits. Reducing -sets and -candidates
// trades fidelity for speed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/workload"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "6a | 6b | 6c | all")
		sets       = flag.Int("sets", 20, "schedulable sets per utilization interval")
		candidates = flag.Int("candidates", 5000, "max candidates per interval")
		seed       = flag.Uint64("seed", 2020, "master seed")
		csvDir     = flag.String("csv", "", "directory to write CSV series into (optional)")
		jsonOut    = flag.Bool("json", false, "write the versioned BENCH_<fig>.json document per figure")
		jsonPath   = flag.String("jsonout", "", "override the BENCH JSON path (single figure only; implies -json)")
		withGreedy = flag.Bool("greedy", false, "also run the §III greedy straw-man")
		loU        = flag.Float64("lo", 0.1, "lowest utilization bound")
		hiU        = flag.Float64("hi", 1.0, "highest utilization bound")
		quiet      = flag.Bool("q", false, "suppress per-interval progress")
		noCache    = flag.Bool("nocache", false, "disable the offline-analysis cache and the interval memo, with its 6a-to-6b and 6b-to-6c handoffs (benchmarking the caches themselves)")
		cacheStats = flag.Bool("cachestats", false, "print analysis-cache and interval-memo statistics after each figure")
	)
	flag.Parse()

	// One session for all figures: the figures evaluate one population of
	// task sets, so the second and third sweeps take each interval's sets
	// from the session's interval memo instead of drawing them again, and
	// their analyses from the offline-analysis cache instead of
	// re-deriving them; 6b resumes each run from 6a's run at its fault
	// instant, and 6c takes from 6b every run whose fault draws provably
	// fire no transient. -nocache turns all of it off. SIGINT or
	// SIGTERM cancels gracefully, printing the partial table.
	runner := repro.NewRunner(repro.RunnerConfig{CacheEntries: cacheCap(*noCache)})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scenarios := map[string]fault.Scenario{
		"6a": fault.NoFault,
		"6b": fault.PermanentOnly,
		"6c": fault.PermanentAndTransient,
	}
	var order []string
	switch *fig {
	case "all":
		order = []string{"6a", "6b", "6c"}
	case "6a", "6b", "6c":
		order = []string{*fig}
	default:
		fmt.Fprintln(os.Stderr, "usage: mkbench -fig 6a|6b|6c|all")
		os.Exit(2)
	}
	if *jsonPath != "" {
		*jsonOut = true
		if len(order) > 1 {
			fmt.Fprintln(os.Stderr, "mkbench: -jsonout needs a single figure (use -fig 6a|6b|6c)")
			os.Exit(2)
		}
	}

	for _, name := range order {
		sc := scenarios[name]
		cfg := repro.DefaultSweepConfig(sc)
		cfg.Seed = *seed
		cfg.SetsPerInterval = *sets
		cfg.MaxCandidates = *candidates
		cfg.Intervals = workload.Intervals(*loU, *hiU, 0.1)
		if *withGreedy {
			cfg.Approaches = []repro.Approach{repro.ST, repro.DP, repro.Greedy, repro.Selective}
		}
		if !*quiet {
			cfg.Progress = os.Stderr
			fmt.Fprintf(os.Stderr, "--- Figure %s (%s): %d sets/interval, %d max candidates ---\n",
				name, sc, *sets, *candidates)
		}
		t0 := time.Now() //mklint:allow determinism — wall-clock sweep timer reported in BENCH JSON
		rep, err := runner.Sweep(ctx, cfg)
		interrupted := err != nil && errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(t0) //mklint:allow determinism — wall-clock sweep timer reported in BENCH JSON
		if interrupted {
			// Partial results: print whatever intervals completed and
			// skip the machine-readable outputs (they would be
			// indistinguishable from a full run).
			if rep != nil && len(rep.Rows) > 0 {
				fmt.Print(rep.Table())
			}
			fmt.Printf("(figure %s interrupted after %v — partial results above: %d of %d intervals; JSON/CSV outputs skipped)\n",
				name, elapsed.Round(time.Millisecond), rowCount(rep), len(cfg.Intervals))
			os.Exit(1)
		}
		fmt.Print(rep.Table())
		fmt.Printf("(figure %s finished in %v)\n\n", name, elapsed.Round(time.Millisecond))
		if *cacheStats {
			st := runner.CacheStats()
			fmt.Fprintf(os.Stderr, "analysis cache after figure %s: %d hits, %d misses, %d evictions, %d/%d entries\n",
				name, st.Hits, st.Misses, st.Evictions, st.Entries, st.Capacity)
			ms := runner.MemoStats()
			fmt.Fprintf(os.Stderr, "interval memo after figure %s: %d hits, %d misses, %d runs taken, %d runs resumed\n",
				name, ms.Hits, ms.Misses, ms.Taken, ms.Resumed)
		}
		if *jsonOut {
			path := *jsonPath
			if path == "" {
				dir := *csvDir
				if dir == "" {
					dir = "."
				} else if err := os.MkdirAll(dir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
					os.Exit(1)
				}
				path = filepath.Join(dir, "BENCH_"+name+".json")
			}
			data, err := rep.BenchJSON(name, cfg, elapsed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, "fig"+name+".csv")
			if err := os.WriteFile(path, []byte(rep.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
}

// cacheCap maps the -nocache flag onto RunnerConfig.CacheEntries.
func cacheCap(noCache bool) int {
	if noCache {
		return -1
	}
	return 0
}

func rowCount(rep *repro.Report) int {
	if rep == nil {
		return 0
	}
	return len(rep.Rows)
}
