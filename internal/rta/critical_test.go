package rta_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

var replaySeed = flag.Uint64("seed", 0, "replay the one trial of TestCriticalInstantMatchesWalk a failure printed")

// TestCriticalInstantMatchesWalk is the oracle for SchedulableRPattern's
// first-job test: on synchronous R-pattern §V candidates it must answer
// exactly what the hyperperiod walk answers, and on an accepted set the
// profile's worst response of each task must be its first job's
// response. Three corpora: the default generator with the 10 s cap,
// HarmonicPeriods (small, exact hyperperiods) and the default generator
// with a 200 ms cap, which saturates nearly every walk. Targets lie in
// [0.2, 0.7), where both verdicts are common, and each corpus must reach
// the fixed point at least 200 times per verdict. Trial t of a corpus
// draws from workload.NewGenerator(cfg, base+t); a failure prints the
// -seed flag that replays it.
func TestCriticalInstantMatchesWalk(t *testing.T) {
	const floor = 200
	harmonic := workload.DefaultConfig()
	harmonic.HarmonicPeriods = true
	for _, c := range []struct {
		name   string
		base   uint64
		trials int
		cfg    workload.Config
		cap    timeu.Time
	}{
		{"default", 0xc1000000, 9000, workload.DefaultConfig(), 10 * timeu.Second},
		{"harmonic", 0xc2000000, 18000, harmonic, 10 * timeu.Second},
		{"200ms-cap", 0xc3000000, 9000, workload.DefaultConfig(), 200 * timeu.Millisecond},
	} {
		var accepted, rejected int
		for trial := 0; trial < c.trials; trial++ {
			seed := c.base + uint64(trial)
			if *replaySeed != 0 && seed != *replaySeed {
				continue
			}
			gen := workload.NewGenerator(c.cfg, seed)
			s, err := gen.Candidate(0.2 + 0.5*stats.NewRand(seed).Float64())
			if err != nil || !rta.FirstJobsFit(s) {
				continue
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("replay: go test ./internal/rta -run '^TestCriticalInstantMatchesWalk$' -seed=%#x\n%s corpus, set:\n%v\n%s",
					seed, c.name, s, fmt.Sprintf(format, args...))
			}
			got, walk := rta.SchedulableRPattern(s, pattern.RPattern, c.cap), rta.WalkFilter(s, pattern.RPattern, c.cap)
			if got != walk {
				fail("first-job test %v, walk %v", got, walk)
			}
			if !got {
				rejected++
				continue
			}
			accepted++
			prof := rta.MandatoryProfile(s, pattern.RPattern, c.cap)
			var prefix timeu.Time
			for i := range s.Tasks {
				prefix += s.Tasks[i].WCET
				if r, ok := rta.FirstJobResponse(s, i, prefix); !ok || r != prof.MaxResponse[i] {
					fail("task %d first-job response %v (ok %v), profile's worst %v", i, r, ok, prof.MaxResponse[i])
				}
			}
		}
		t.Logf("%s: %d accepted, %d rejected by the fixed point", c.name, accepted, rejected)
		if *replaySeed == 0 && (accepted < floor || rejected < floor) {
			t.Errorf("%s: %d accepted, %d rejected; the corpus must reach the fixed point %d times per verdict",
				c.name, accepted, rejected, floor)
		}
	}
}

// TestEPatternFirstJobsStillWalk pins the dispatch. Under the E-pattern
// the set late passes every first-job check: the first-job sum 1 + 2 ≤ 3
// holds, and in the walk's own record no task's first job misses. Yet
// τ2's third job, released at 6 ms, meets τ1's jobs at 6 and 8 ms and is
// still running at its 9 ms deadline. The E-pattern has no prefix
// property, so SchedulableRPattern must walk it and reject.
func TestEPatternFirstJobsStillWalk(t *testing.T) {
	late := task.NewSet(task.New(0, 2, 2, 1, 3, 4), task.New(1, 3, 3, 2, 1, 2))
	const cap = 10 * timeu.Second
	if !rta.FirstJobsFit(late) {
		t.Fatal("late fails the first-job sum: premise broken")
	}
	misses := rta.PostponedMisses(late, pattern.EPattern, late.MKHyperperiod(cap), make([]timeu.Time, 2))
	if len(misses) == 0 {
		t.Fatal("late misses no job: premise broken")
	}
	for _, m := range misses {
		if m.Index == 1 {
			t.Fatalf("misses %+v: want only later jobs to miss", misses)
		}
	}
	if rta.SchedulableRPattern(late, pattern.EPattern, cap) {
		t.Error("SchedulableRPattern accepts an E-pattern set whose third job misses")
	}
}

// FuzzCriticalInstantMatchesWalk checks SchedulableRPattern against the
// bare walk on arbitrary bounded synchronous R-pattern sets, at the
// generator's 10 s cap and at a 200 ms cap. Every deadline is at most
// 50 ms, below both caps, so the two must agree exactly.
func FuzzCriticalInstantMatchesWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSet(data)
		for _, cap := range []timeu.Time{10 * timeu.Second, 200 * timeu.Millisecond} {
			got, walk := rta.SchedulableRPattern(s, pattern.RPattern, cap), rta.WalkFilter(s, pattern.RPattern, cap)
			if got != walk {
				t.Fatalf("cap %v: first-job test %v, walk %v, set:\n%v", cap, got, walk, s)
			}
		}
	})
}

// fuzzSet decodes data into a valid synchronous set of 1–8 tasks. Byte 0
// picks the count; each task then reads 8 bytes (missing bytes read as
// zero): a whole-µs period in [1, 50] ms, a deadline in [1 µs, P], a
// WCET in [1 µs, D], k in [1, 20] and m in [1, k]. The 1 ms floor keeps a
// 10 s walk to at most 10,000 releases per task.
func fuzzSet(data []byte) *task.Set {
	next := func(n int) uint64 {
		var b [8]byte
		copy(b[:n], data)
		data = data[min(n, len(data)):]
		return binary.LittleEndian.Uint64(b[:])
	}
	tasks := make([]task.Task, 1+next(1)%8)
	for i := range tasks {
		p := timeu.Millisecond + timeu.Time(next(2)%49001)
		d := 1 + timeu.Time(next(2))%p
		c := 1 + timeu.Time(next(2))%d
		k := 1 + int(next(1)%20)
		m := 1 + int(next(1))%k
		tasks[i] = task.Task{Period: p, Deadline: d, WCET: c, M: m, K: k}
	}
	return task.NewSet(tasks...)
}
