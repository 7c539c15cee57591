package experiment

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// resumeCase is one resume check: set under approach, with a permanent
// fault on proc at at, of the given kind of instant. faultSeed is the
// seed the set's random instant is drawn from.
type resumeCase struct {
	set       *task.Set
	approach  policy.Approach
	horizon   timeu.Time
	at        timeu.Time
	proc      int
	kind      string
	faultSeed uint64
}

func (c resumeCase) String() string {
	return fmt.Sprintf("set %v, %v, processor %d, fault at %v (%s), horizon %v, fault seed %#x",
		c.set, c.approach, c.proc, c.at, c.kind, c.horizon, c.faultSeed)
}

// resultDiff names the first field in which got differs from want, or
// returns "".
func resultDiff(got, want *sim.Result) string {
	switch {
	case got.Counters.Proc != want.Counters.Proc:
		return fmt.Sprintf("per-processor time %+v, want %+v", got.Counters.Proc, want.Counters.Proc)
	case got.Counters != want.Counters:
		return fmt.Sprintf("counters %+v, want %+v", got.Counters, want.Counters)
	case !reflect.DeepEqual(got.Outcomes, want.Outcomes):
		return "outcomes differ"
	case !slices.Equal(got.ViolationAt, want.ViolationAt):
		return fmt.Sprintf("violations at %v, want %v", got.ViolationAt, want.ViolationAt)
	case !reflect.DeepEqual(got.PermanentFault, want.PermanentFault):
		return fmt.Sprintf("permanent fault %+v, want %+v", got.PermanentFault, want.PermanentFault)
	case !reflect.DeepEqual(got, want):
		return "results differ"
	}
	return ""
}

// checkResume captures the fork of c's fault-free run at c.at, resumes
// it on a fresh scratch and on warm, and fails unless each resumed run
// equals the full run with the fault from 0 and passes the run
// invariants. The kept fork is shared by both resumes, so a resume that
// wrote to it fails the second. The warm resume runs an equal copy of
// the set, as a sweep does whose interval two concurrent misses drew.
func checkResume(t *testing.T, c resumeCase, opts policy.Options, warm *sim.Scratch) {
	t.Helper()
	run := func(cfg sim.Config) *sim.Result {
		t.Helper()
		pol, err := policy.New(c.approach, opts)
		if err != nil {
			t.Fatal(err)
		}
		set := c.set
		if cfg.Resume != nil && cfg.Scratch != nil {
			set = task.NewSet(c.set.Tasks...)
		}
		eng, err := sim.New(set, pol, cfg)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		return res
	}
	plan := func() *fault.Plan {
		return &fault.Plan{Permanent: &fault.Permanent{At: c.at, Proc: c.proc}}
	}
	full := run(sim.Config{Horizon: c.horizon, Faults: plan(), Scratch: warm})
	fork := sim.ForkOf(run(sim.Config{Horizon: c.horizon, ForkAt: c.at, Scratch: warm}))
	if fork == nil {
		t.Fatalf("%v: the fault-free run captured no fork", c)
	}
	for _, scr := range []*sim.Scratch{nil, warm} {
		got := run(sim.Config{Horizon: c.horizon, Faults: plan(), Resume: fork, Scratch: scr})
		if d := resultDiff(got, full); d != "" {
			t.Fatalf("%v, warm scratch %v: the resumed run differs from the full run: %s", c, scr != nil, d)
		}
		if bad := got.Counters.CheckInvariants(c.horizon); len(bad) > 0 {
			t.Fatalf("%v, warm scratch %v: %s", c, scr != nil, bad[0])
		}
	}
}

// faultKinds are the kinds of instant faultInstants looks for, in the
// order it returns them.
var faultKinds = []string{"release", "completion", "deadline alone", "1us", "horizon-1us", "random"}

// faultInstants returns the instants checkResume puts a fault at for set
// s under approach a, indexed like faultKinds: a release and a
// completion of the fault-free run past its first third, a missed
// deadline there that no release or completion shares, 1 µs,
// horizon − 1 µs and the instant the fault seed's PermanentOnly plan
// draws. A kind the run does not have reads 0.
func faultInstants(t *testing.T, s *task.Set, a policy.Approach, opts policy.Options, horizon timeu.Time, faultSeed uint64) []timeu.Time {
	t.Helper()
	pol, err := policy.New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	col := &metrics.Collector{}
	eng, err := sim.New(s, pol, sim.Config{Horizon: horizon, Sink: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("set %v, %v: %v", s, a, err)
	}
	// An instant-0 random draw stays 0: it leaves nothing to resume.
	out := []timeu.Time{0, 0, 0, 1, horizon - 1,
		fault.NewPlan(fault.PermanentOnly, horizon, stats.NewRand(faultSeed)).Permanent.At}
	completes := map[timeu.Time]bool{}
	for _, ev := range col.Events {
		if ev.Kind == metrics.EvComplete {
			completes[ev.T] = true
		}
	}
	released := func(at timeu.Time) bool {
		for _, tk := range s.Tasks {
			if at >= tk.Offset && (at-tk.Offset)%tk.Period == 0 {
				return true
			}
		}
		return false
	}
	for _, ev := range col.Events {
		if ev.T < horizon/3 {
			continue
		}
		kind := -1
		switch {
		case ev.Kind == metrics.EvRelease:
			kind = 0
		case ev.Kind == metrics.EvComplete:
			kind = 1
		case ev.Kind == metrics.EvSettle && !ev.OK && !released(ev.T) && !completes[ev.T]:
			kind = 2
		}
		if kind >= 0 && out[kind] == 0 {
			out[kind] = ev.T
		}
	}
	return out
}

// deadlineAloneSet is the shape of the stop fuzz target's
// deadline_miss_alone seed: under MKSS-ST, τ2's first job (deadline
// 13 ms, 8 ms of work) is preempted by τ1's second at 10 ms and misses
// at 13 ms, where no release and no completion falls.
func deadlineAloneSet() *task.Set {
	return task.NewSet(task.New(0, 10, 10, 6, 1, 1), task.New(1, 20, 13, 8, 1, 1))
}

// TestResumeMatchesFullRun is the resume oracle: §V task sets drawn from
// all nine Figure-6 intervals, schedulable or not, plus
// deadlineAloneSet, under every registered approach, with a permanent
// fault on either processor at each instant faultInstants finds. Every
// resumed run, on fresh and on warm scratch, must equal the full run.
func TestResumeMatchesFullRun(t *testing.T) {
	gen := workload.NewGenerator(workload.DefaultConfig(), 0x5E5)
	targets := stats.NewRand(0x7A6)
	var sets []*task.Set
	for _, iv := range workload.Intervals(0.1, 1.0, 0.1) {
		for drawn := 0; drawn < 2; {
			s, err := gen.Candidate(iv.Lo + (iv.Hi-iv.Lo)*targets.Float64())
			if err != nil {
				continue
			}
			sets = append(sets, s)
			drawn++
		}
	}
	sets = append(sets, deadlineAloneSet())
	approaches := append(policy.Approaches(), policy.Extensions()...)
	cache := analysis.NewCache(0)
	warm := sim.NewScratch()
	kinds := make([]int, len(faultKinds))
	for si, s := range sets {
		horizon := simHorizon(s, 500*timeu.Millisecond, 2*timeu.Second)
		faultSeed := stats.DeriveSeed(0xF0, uint64(si))
		opts := policy.Options{Offline: cache.Get(s, analysis.Options{})}
		for _, a := range approaches {
			for kind, at := range faultInstants(t, s, a, opts, horizon, faultSeed) {
				if at == 0 {
					continue
				}
				kinds[kind]++
				for proc := range sim.NumProcs {
					checkResume(t, resumeCase{set: s, approach: a, horizon: horizon, at: at, proc: proc,
						kind: faultKinds[kind], faultSeed: faultSeed}, opts, warm)
				}
			}
		}
	}
	for kind, n := range kinds {
		if n == 0 {
			t.Errorf("no (set, approach) had a fault instant of kind %q", faultKinds[kind])
		}
	}
}

// FuzzResumeMatchesFullRun checks one decoded resume case the way
// TestResumeMatchesFullRun checks each of its own.
func FuzzResumeMatchesFullRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzResumeCase(data)
		if err := c.set.Validate(); err != nil {
			t.Skip(err)
		}
		opts := policy.Options{Offline: analysis.NewCache(0).Get(c.set, analysis.Options{})}
		checkResume(t, c, opts, sim.NewScratch())
	})
}

// fuzzResumeCase decodes data into a resume case (missing bytes read as
// zero). Bytes 0–2 pick the task count in [1, 8], the approach and the
// faulty processor; bytes 3–5 are the horizon in [1, 200] ms and bytes
// 6–8 the fault instant in [1 µs, horizon − 1 µs]. Each task then reads
// 14 bytes, all times in whole µs: a period in [100 µs, 200 ms], a
// deadline in [1 µs, P], a WCET in [1 µs, D], an offset in [0, 200] ms,
// k in [1, 16] and m in [1, k]. The ranges make every decoded task
// valid; the caller still asks task.Set.Validate.
func fuzzResumeCase(data []byte) resumeCase {
	next := func(n int) uint64 {
		var b [8]byte
		copy(b[:n], data)
		data = data[min(n, len(data)):]
		return binary.LittleEndian.Uint64(b[:])
	}
	n := 1 + int(next(1)%8)
	all := append(policy.Approaches(), policy.Extensions()...)
	c := resumeCase{kind: "fuzz"}
	c.approach = all[next(1)%uint64(len(all))]
	c.proc = int(next(1) % sim.NumProcs)
	c.horizon = timeu.Millisecond + timeu.Time(next(3)%199_001)
	c.at = 1 + timeu.Time(next(3))%(c.horizon-1)
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := 100 + timeu.Time(next(3)%199_901)
		d := 1 + timeu.Time(next(3))%p
		wcet := 1 + timeu.Time(next(3))%d
		off := timeu.Time(next(3) % 200_001)
		k := 1 + int(next(1)%16)
		m := 1 + int(next(1))%k
		tasks[i] = task.Task{Period: p, Deadline: d, WCET: wcet, M: m, K: k, Offset: off}
	}
	c.set = task.NewSet(tasks...)
	return c
}
