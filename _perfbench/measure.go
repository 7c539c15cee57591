package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// measured is the outcome of one closed-loop measured phase.
type measured struct {
	lat       []time.Duration // per op, in op order (failed ops included)
	attempted int
	failed    int
	wall      time.Duration
	errs      []error // the first few failures, for the log
}

// measure runs ops [0, n) one at a time, n a whole number of cycles, and
// stops early (at a cycle boundary) only once limit has passed. Each
// chunk of consecutive ops runs on the next CPU of rot. An op that
// errors or fails its check is counted as failed; its time still counts.
func measure(n, cycleLen, chunk int, limit time.Duration, rot *cpuRotor, op func(i int) (time.Duration, error)) measured {
	var m measured
	start := time.Now()
	for i := 0; i < n; i++ {
		if i%cycleLen == 0 && i > 0 && time.Since(start) > limit {
			break
		}
		if i%chunk == 0 {
			rot.step()
		}
		took, err := op(i)
		m.attempted++
		m.lat = append(m.lat, took)
		if err != nil {
			m.failed++
			if len(m.errs) < 5 {
				m.errs = append(m.errs, fmt.Errorf("op %d: %w", i, err))
			}
		}
	}
	m.wall = time.Since(start)
	return m
}

// opCount is the measured phase's op count: whole cycles, enough to last
// about d at the nominal rate, and at least minOps.
func opCount(d time.Duration, opsPerSecond float64, cycleLen, minOps int) int {
	n := max(int(math.Ceil(d.Seconds()*opsPerSecond)), minOps)
	return (n + cycleLen - 1) / cycleLen * cycleLen
}

// chunkOps is how many ops run on one CPU before the next takes over:
// whole cycles, enough to last about one second at the nominal rate.
func chunkOps(opsPerSecond float64, cycleLen int) int {
	return opCount(time.Second, opsPerSecond, cycleLen, 1)
}

// latencySummary is the percentile view of one phase's op times.
type latencySummary struct {
	n        int
	p50, p90 time.Duration
	beyond90 int // samples strictly after the p90 rank
}

func summarize(lat []time.Duration) latencySummary {
	s := make([]float64, len(lat))
	for i, d := range lat {
		s[i] = float64(d)
	}
	sort.Float64s(s)
	p50, _ := percentile(s, 50)
	p90, beyond := percentile(s, 90)
	return latencySummary{n: len(s), p50: time.Duration(p50), p90: time.Duration(p90), beyond90: beyond}
}

// percentile returns the nearest-rank p-th percentile of sorted (the
// value at rank ceil(p/100·n)) and the number of samples ranked after
// it. An empty sample yields NaN.
func percentile(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// median is the 50th percentile of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}

// medianDur is the median of ds in the given unit, or 0 for no samples.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
