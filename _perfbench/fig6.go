package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// The Fig-6 workloads run sweep units at the paper's settings: one
// (m,k)-utilization interval, 20 sets, at most 5000 candidates,
// MKSS-ST/DP/selective, one worker.
var (
	scenarios  = []repro.Scenario{repro.NoFault, repro.PermanentOnly, repro.PermanentAndTransient}
	approaches = []repro.Approach{repro.ST, repro.DP, repro.Selective}
	// figCSV names the committed Figure-6 series of each scenario.
	figCSV = map[repro.Scenario]string{
		repro.NoFault:               "fig6a.csv",
		repro.PermanentOnly:         "fig6b.csv",
		repro.PermanentAndTransient: "fig6c.csv",
	}
)

// goldenSeed is the seed of the committed Figure-6 results.
const goldenSeed = 2020

// unit is one op: a single-interval sweep. offset is the interval's
// index in the full 0.1–1.0 sweep, so the unit draws the same sets that
// interval of a whole sweep with the same seed would.
type unit struct {
	seed   uint64
	sc     repro.Scenario
	iv     workload.Interval
	offset int
}

// unitOut is what a unit produced, in a comparable form: per approach
// (in approaches order) the normalized-energy mean as float bits, the
// violating-set count and the summed run counters.
type unitOut struct {
	Candidates, Sets int
	Norm             [3]uint64
	Violations       [3]int
	Counters         [3]metrics.Counters
}

type fig6Bench struct {
	seed      uint64
	intervals []workload.Interval
	offsets   []int
	header    string
	golden    map[repro.Scenario][]string // committed CSV rows, by offset
	runner    *repro.Runner
	outs      []unitOut // outputs of the first traceN measured ops
	traceN    int
}

// newFig6 builds fig6-accept (the five intervals of [0.1, 0.6), where
// every unit fills its 20 sets) or fig6-reject (the three of [0.7, 1.0),
// where units draw all 5000 candidates and keep few sets).
func newFig6(o options) (*fig6Bench, error) {
	all := workload.Intervals(0.1, 1.0, 0.1)
	b := &fig6Bench{seed: o.seed, golden: map[repro.Scenario][]string{}}
	first, last, traceCycles := 0, 5, 4
	if o.workload == "fig6-reject" {
		first, last, traceCycles = 6, 9, 8
	}
	for off := first; off < last; off++ {
		b.intervals = append(b.intervals, all[off])
		b.offsets = append(b.offsets, off)
	}
	b.traceN = traceCycles * b.cycleLen()
	for sc, name := range figCSV {
		data, err := os.ReadFile(filepath.Join(o.root, "results", name))
		if err != nil {
			return nil, fmt.Errorf("committed Figure-6 rows: %w", err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if len(lines) != 1+len(all) {
			return nil, fmt.Errorf("%s: %d lines, want %d", name, len(lines), 1+len(all))
		}
		b.header = lines[0]
		b.golden[sc] = lines[1:]
	}
	return b, nil
}

// cycleLen: one cycle runs every interval under the first scenario,
// then the second, then the third, all with one seed — the order
// `mkbench -fig all` uses, so scenarios two and three reuse the analyses
// the first one cached.
func (b *fig6Bench) cycleLen() int { return len(scenarios) * len(b.intervals) }

func (b *fig6Bench) traceOps() int { return b.traceN }

// unit returns op i of the sequence; cycle c uses seed mix(seed, c).
func (b *fig6Bench) unit(i int) unit {
	c, j := i/b.cycleLen(), i%b.cycleLen()
	k := j % len(b.intervals)
	return unit{seed: mix(b.seed, uint64(c)), sc: scenarios[j/len(b.intervals)], iv: b.intervals[k], offset: b.offsets[k]}
}

func sweepConfig(u unit) repro.SweepConfig {
	cfg := repro.DefaultSweepConfig(u.sc)
	cfg.Seed = u.seed
	cfg.Intervals = []workload.Interval{u.iv}
	cfg.IntervalOffset = u.offset
	cfg.Workers = 1
	return cfg
}

// setUp builds a fresh session and runs the seed-2020 units of the
// workload's intervals under all three scenarios, comparing each row with
// the committed results/fig6{a,b,c}.csv byte for byte.
func (b *fig6Bench) setUp() error {
	r := repro.NewRunner(repro.RunnerConfig{})
	for _, sc := range scenarios {
		for k, iv := range b.intervals {
			rep, err := r.Sweep(context.Background(), sweepConfig(unit{seed: goldenSeed, sc: sc, iv: iv, offset: b.offsets[k]}))
			if err != nil {
				return err
			}
			if _, err := checkUnit(rep); err != nil {
				return err
			}
			got := strings.Split(strings.TrimSuffix(rep.CSV(), "\n"), "\n")
			want := b.golden[sc][b.offsets[k]]
			if len(got) != 2 || got[0] != b.header || got[1] != want {
				return fmt.Errorf("seed-%d unit %s %v: CSV %q, committed %q", goldenSeed, sc, iv, got, want)
			}
		}
	}
	b.runner = r
	return nil
}

// op runs unit i through Runner.Sweep and checks its row.
func (b *fig6Bench) op(i int) (time.Duration, error) {
	t0 := time.Now()
	rep, err := b.runner.Sweep(context.Background(), sweepConfig(b.unit(i)))
	took := time.Since(t0)
	if err != nil {
		return took, err
	}
	out, err := checkUnit(rep)
	if i < b.traceN {
		b.outs = append(b.outs, out)
	}
	return took, err
}

// checkUnit verifies one unit's row — every approach's summed counters
// satisfy the run invariants over the summed horizon, and the interval
// stopped at 20 sets or 5000 candidates — and returns its output.
func checkUnit(rep *repro.Report) (unitOut, error) {
	var out unitOut
	if len(rep.Rows) != 1 || len(rep.Approaches) != len(approaches) {
		return out, fmt.Errorf("%w: %d rows, %d approaches", errCheck, len(rep.Rows), len(rep.Approaches))
	}
	row := rep.Rows[0]
	out.Candidates, out.Sets = row.Candidates, len(row.Sets)
	for ai, a := range approaches {
		if rep.Approaches[ai] != a {
			return out, fmt.Errorf("%w: approach %d is %s, want %s", errCheck, ai, rep.Approaches[ai], a)
		}
		out.Norm[ai] = math.Float64bits(row.NormMean[a])
		out.Violations[ai] = row.Violations[a]
		out.Counters[ai] = row.Counters[a]
		if bad := row.Counters[a].CheckInvariants(row.HorizonTotal); len(bad) > 0 {
			return out, fmt.Errorf("%w: %v %s: %s", errCheck, row.Interval, a, bad[0])
		}
	}
	if out.Sets > 20 || out.Candidates > 5000 || (out.Sets < 20 && out.Candidates != 5000) {
		return out, fmt.Errorf("%w: %v stopped at %d sets after %d candidates", errCheck, row.Interval, out.Sets, out.Candidates)
	}
	return out, nil
}

func (b *fig6Bench) close() error { return nil }

// mix derives sub-seed i of seed with the splitmix64 finalizer.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
