package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// simSpans names the engine-run span of each approach.
var simSpans = [3]string{"sim.run.st", "sim.run.dp", "sim.run.selective"}

// trace re-drives ops [0, n) through the calls Sweep composes — set
// generation, the analysis cache, and one engine run per set and
// approach — with a span around each, and requires every unit to
// reproduce the measured op's output exactly.
func (b *fig6Bench) trace(n int, tr *tracer) (map[string]metric, error) {
	cache := analysis.NewCache(0)
	scr := sim.NewScratch()
	var before, after runtime.MemStats
	var allocBytes, allocs, gcs uint64
	var cands, accepted, jobs int
	var viol [3]int
	for i := 0; i < n; i++ {
		u := b.unit(i)
		runtime.ReadMemStats(&before)
		out, err := traceUnit(tr, i, u, cache, scr)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if out != b.outs[i] {
			return nil, fmt.Errorf("op %d (%s %v seed %d): traced output %+v differs from measured %+v",
				i, u.sc, u.iv, u.seed, out, b.outs[i])
		}
		allocBytes += after.TotalAlloc - before.TotalAlloc
		allocs += after.Mallocs - before.Mallocs
		gcs += uint64(after.NumGC - before.NumGC)
		cands += out.Candidates
		accepted += out.Sets
		for ai := range approaches {
			viol[ai] += out.Violations[ai]
			jobs += out.Counters[ai].Released
		}
		probeFilter(tr, i, u, out.Candidates)
	}

	var simTotal time.Duration
	for _, name := range simSpans {
		for _, d := range tr.durations(name) {
			simTotal += d
		}
	}
	cs := cache.Stats()
	perOp := func(x uint64) float64 { return float64(x) / float64(n) }
	return map[string]metric{
		"workload.generate_ms":        {medianDur(tr.durations("workload.generate"), time.Millisecond), "", n},
		"workload.candidates":         {perOp(uint64(cands)), "", n},
		"workload.accepted":           {perOp(uint64(accepted)), "", n},
		"workload.accept_ratio":       {ratio(accepted, cands), "", cands},
		"workload.candidate_us":       durMetric(tr.durations("workload.candidate"), time.Microsecond),
		"rta.filter_reject_us":        durMetric(tr.durations("rta.filter_reject"), time.Microsecond),
		"rta.filter_accept_us":        durMetric(tr.durations("rta.filter_accept"), time.Microsecond),
		"analysis.products_ms":        {medianDur(tr.perOp("analysis.products", n), time.Millisecond), "", n},
		"analysis.cache_hit_ratio":    {ratio(int(cs.Hits), int(cs.Hits+cs.Misses)), "", int(cs.Hits + cs.Misses)},
		"sim.run_ms.st":               durMetric(tr.durations(simSpans[0]), time.Millisecond),
		"sim.run_ms.dp":               durMetric(tr.durations(simSpans[1]), time.Millisecond),
		"sim.run_ms.selective":        durMetric(tr.durations(simSpans[2]), time.Millisecond),
		"sim.jobs":                    {float64(jobs), "", accepted * len(approaches)},
		"sim.ns_per_job":              {ratio(int(simTotal.Nanoseconds()), jobs), "", jobs},
		"sim.mk_violations.st":        {float64(viol[0]), "", accepted},
		"sim.mk_violations.dp":        {float64(viol[1]), "", accepted},
		"sim.mk_violations.selective": {float64(viol[2]), "", accepted},
		"experiment.alloc_mb":         {perOp(allocBytes) / (1 << 20), "", n},
		"experiment.allocs":           {perOp(allocs), "", n},
		"experiment.gc_cycles":        {perOp(gcs), "", n},
	}, nil
}

// traceUnit is one sweep unit rebuilt from its layers' calls, in the
// order and with the seed derivation experiment.RunContext uses.
func traceUnit(tr *tracer, i int, u unit, cache *analysis.Cache, scr *sim.Scratch) (unitOut, error) {
	var out unitOut
	cfg := sweepConfig(u)
	op := tr.begin(opSpan, i, -1)
	gen := workload.NewGenerator(cfg.Workload, stats.DeriveSeed(cfg.Seed, uint64(cfg.IntervalOffset)))
	sp := tr.begin("workload.generate", i, op)
	batch := gen.GenerateInterval(u.iv, cfg.SetsPerInterval, cfg.MaxCandidates)
	tr.end(sp)
	var norm [3]stats.Sample
	for si, s := range batch.Sets {
		horizon := simHorizon(s, cfg.MinHorizon, cfg.HorizonCap)
		sp = tr.begin("analysis.products", i, op)
		prods := cache.Get(s, analysis.Options{Pattern: cfg.CoreOpts.Pattern, HyperperiodCap: cfg.CoreOpts.HyperperiodCap})
		prods.Mandatory(0, 1)
		_, err := prods.Postponement()
		tr.end(sp)
		if err != nil {
			return out, err
		}
		opts := cfg.CoreOpts
		opts.Offline = prods
		faultSeed := stats.DeriveSeed(cfg.Seed, uint64(1_000_000+cfg.IntervalOffset*10_000+si))
		var active [3]float64
		for ai, a := range approaches {
			sp = tr.begin(simSpans[ai], i, op)
			res, err := runSet(s, a, opts, u.sc, horizon, faultSeed, scr)
			tr.end(sp)
			if err != nil {
				return out, err
			}
			active[ai] = res.ActiveEnergy()
			if !res.MKSatisfied() {
				out.Violations[ai]++
			}
			out.Counters[ai] = out.Counters[ai].Add(res.Counters)
		}
		for ai := range approaches {
			v := 1.0
			if active[0] > 0 {
				v = active[ai] / active[0]
			}
			norm[ai].Add(v)
		}
	}
	out.Candidates, out.Sets = batch.Candidates, len(batch.Sets)
	for ai := range norm {
		out.Norm[ai] = math.Float64bits(norm[ai].Mean())
	}
	tr.end(op)
	return out, nil
}

// runSet is one engine run: fault plan, policy, engine, run.
func runSet(s *task.Set, a repro.Approach, opts core.Options, sc repro.Scenario, horizon timeu.Time, faultSeed uint64, scr *sim.Scratch) (*sim.Result, error) {
	plan := fault.NewPlan(sc, horizon, stats.NewRand(faultSeed))
	pol, err := core.New(a, opts)
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(s, pol, sim.Config{Power: sim.DefaultPower(), Horizon: horizon, Faults: plan, Scratch: scr})
	if err != nil {
		return nil, err
	}
	return eng.RunContext(context.Background())
}

// simHorizon is the sweep's per-set horizon: the (m,k)-hyperperiod
// repeated to at least minH, capped at capH.
func simHorizon(s *task.Set, minH, capH timeu.Time) timeu.Time {
	h := s.MKHyperperiod(capH)
	if h >= capH {
		return capH
	}
	return min(max(timeu.CeilDiv(minH, h), 1)*h, capH)
}

// probeFilter times Generator.Candidate and Generator.Schedulable call by
// call on a side stream with op i's interval and candidate count:
// GenerateInterval draws its targets from a private stream, so its own
// calls cannot be timed one by one. The probe runs outside the op span.
func probeFilter(tr *tracer, i int, u unit, candidates int) {
	gen := workload.NewGenerator(workload.DefaultConfig(), mix(u.seed, uint64(1000+u.offset)))
	targets := stats.NewRand(mix(u.seed, uint64(2000+u.offset)))
	for c := 0; c < candidates; c++ {
		target := u.iv.Lo + targets.Float64()*(u.iv.Hi-u.iv.Lo)
		sp := tr.begin("workload.candidate", i, -1)
		s, err := gen.Candidate(target)
		tr.end(sp)
		if err != nil {
			continue
		}
		if ut := s.MKUtilization(); ut < u.iv.Lo || ut >= u.iv.Hi {
			continue
		}
		sp = tr.begin("rta.filter", i, -1)
		if gen.Schedulable(s) {
			tr.endAs(sp, "rta.filter_accept")
		} else {
			tr.endAs(sp, "rta.filter_reject")
		}
	}
}

// durMetric is the median of ds in unit, with its sample count; a layer
// never called reads 0.
func durMetric(ds []time.Duration, unit time.Duration) metric {
	return metric{medianDur(ds, unit), "", len(ds)}
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
