package rta_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// refJob is one mandatory job of the brute-force enumeration.
type refJob struct {
	taskID, index           int
	release, deadline, wcet timeu.Time
}

// refJobs enumerates every mandatory job of s released in [0, horizon),
// each release postponed by theta, sorted by (release, task).
func refJobs(s *task.Set, kind pattern.Kind, horizon timeu.Time, theta []timeu.Time) []refJob {
	var jobs []refJob
	for i, t := range s.Tasks {
		for j := 1; t.Release(j) < horizon; j++ {
			if pattern.Mandatory(kind, j, t.M, t.K) {
				jobs = append(jobs, refJob{i, j, t.Release(j) + theta[i], t.AbsDeadline(j), t.WCET})
			}
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].release != jobs[b].release {
			return jobs[a].release < jobs[b].release
		}
		return jobs[a].taskID < jobs[b].taskID
	})
	return jobs
}

// refWalk is the recording loop MandatoryProfile ran before the filter,
// the profile and Verify shared one walk, fed a job slice instead of the
// iterator and extended to collect misses. It is the independent oracle
// for the walk.
func refWalk(jobs []refJob, n int, horizon timeu.Time) (rta.Profile, []rta.Miss) {
	p := rta.Profile{
		Horizon:     horizon,
		Count:       make([]int, n),
		MaxResponse: make([]timeu.Time, n),
		Schedulable: true,
	}
	var misses []rta.Miss
	type active struct {
		j         refJob
		remaining timeu.Time
	}
	var ready []active
	insert := func(a active) {
		pos := len(ready)
		for pos > 0 {
			q := ready[pos-1]
			if q.j.taskID < a.j.taskID || (q.j.taskID == a.j.taskID && q.j.index < a.j.index) {
				break
			}
			pos--
		}
		ready = append(ready, active{})
		copy(ready[pos+1:], ready[pos:])
		ready[pos] = a
	}
	now := timeu.Time(0)
	next := 0
	for next < len(jobs) || len(ready) > 0 {
		if len(ready) == 0 {
			if next >= len(jobs) {
				break
			}
			if jobs[next].release > now {
				p.Gaps = append(p.Gaps, jobs[next].release-now)
				now = jobs[next].release
			}
		}
		for next < len(jobs) && jobs[next].release <= now {
			pend := jobs[next]
			p.Count[pend.taskID]++
			p.Busy += pend.wcet
			insert(active{j: pend, remaining: pend.wcet})
			next++
		}
		if len(ready) == 0 {
			continue
		}
		cur := &ready[0]
		until := now + cur.remaining
		if next < len(jobs) && jobs[next].release < until {
			until = jobs[next].release
		}
		cur.remaining -= until - now
		now = until
		if cur.remaining == 0 {
			if now > cur.j.deadline {
				p.Schedulable = false
				misses = append(misses, rta.Miss{
					TaskID: cur.j.taskID, Index: cur.j.index,
					Completion: now, Deadline: cur.j.deadline,
				})
			}
			if resp := now - cur.j.release; resp > p.MaxResponse[cur.j.taskID] {
				p.MaxResponse[cur.j.taskID] = resp
			}
			ready = ready[1:]
		}
	}
	if now < p.Horizon {
		p.Gaps = append(p.Gaps, p.Horizon-now)
	}
	return p, misses
}

// randomWalkSet draws 1–5 tasks over a small period pool with
// constrained deadlines and WCETs up to half the period, so a good share
// of sets miss deadlines in the mandatory-only schedule.
func randomWalkSet(rng *stats.Rand) *task.Set {
	periods := []int{4, 5, 6, 10, 12, 15, 20}
	tasks := make([]task.Task, 1+rng.Intn(5))
	for i := range tasks {
		p := periods[rng.Intn(len(periods))]
		k := 1 + rng.Intn(6)
		c := 1 + rng.Intn(p/2)
		d := c + rng.Intn(p-c+1)
		tasks[i] = task.New(i, float64(p), float64(d), float64(c), 1+rng.Intn(k), k)
	}
	return task.NewSet(tasks...)
}

// TestWalkMatchesReference pins the one walk to the reference loop over
// seeded random sets: R- and E-pattern, exact and cap-saturated
// hyperperiods, and random backup postponements θ, many large enough to
// cause misses. The filter verdict, every Profile field and Verify's
// violations must equal the reference's. Trial t draws from
// stats.NewRand(walkSeed+t), so a failure names the seed that replays it.
func TestWalkMatchesReference(t *testing.T) {
	const walkSeed = 0x3a1c0000
	var accepted, rejected, saturated, ePattern, missed int
	for trial := 0; trial < 600; trial++ {
		seed := uint64(walkSeed + trial)
		rng := stats.NewRand(seed)
		s := randomWalkSet(rng)
		kind := pattern.RPattern
		if rng.Intn(2) == 1 {
			kind = pattern.EPattern
			ePattern++
		}
		cap := 2 * timeu.Second
		if rng.Intn(3) == 0 {
			cap = timeu.Time(10+rng.Intn(90)) * timeu.Millisecond
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %#x (trial %d), %v, cap %v, set:\n%v\n%s",
				seed, trial, kind, cap, s, fmt.Sprintf(format, args...))
		}

		horizon := s.MKHyperperiod(cap)
		for _, tk := range s.Tasks {
			if horizon%(timeu.Time(tk.K)*tk.Period) != 0 {
				saturated++
				break
			}
		}
		want, _ := refWalk(refJobs(s, kind, horizon, make([]timeu.Time, s.N())), s.N(), horizon)
		if got := rta.MandatoryProfile(s, kind, cap); !reflect.DeepEqual(got, want) {
			fail("profile %+v\nreference %+v", got, want)
		}
		if got := rta.SchedulableRPattern(s, kind, cap); got != want.Schedulable {
			fail("filter says %v, reference %v", got, want.Schedulable)
		}
		if want.Schedulable {
			accepted++
		} else {
			rejected++
		}

		theta := make([]timeu.Time, s.N())
		for i, tk := range s.Tasks {
			theta[i] = timeu.Time(rng.Int64n(int64(tk.Deadline) + 1))
		}
		vh := horizon * timeu.Time(1+rng.Intn(2))
		_, wantMiss := refWalk(refJobs(s, kind, vh, theta), s.N(), vh)
		var gotMiss []rta.Miss
		for _, v := range (&postpone.Analysis{Theta: theta}).Verify(s, kind, vh) {
			gotMiss = append(gotMiss, rta.Miss(v))
		}
		if !reflect.DeepEqual(gotMiss, wantMiss) {
			fail("theta %v horizon %v: Verify %+v\nreference %+v", theta, vh, gotMiss, wantMiss)
		}
		if len(wantMiss) > 0 {
			missed++
		}
	}
	t.Logf("%d accepted, %d rejected, %d saturated, %d E-pattern, %d with postponed misses",
		accepted, rejected, saturated, ePattern, missed)
	// Guard against a corpus that stopped exercising a branch.
	for name, n := range map[string]int{
		"accepted": accepted, "rejected": rejected, "saturated": saturated,
		"E-pattern": ePattern, "postponed misses": missed,
	} {
		if n < 30 {
			t.Errorf("only %d trials with %s; the corpus no longer covers it", n, name)
		}
	}
}

// TestFilterAllocsIndependentOfHyperperiod: the filter's allocations
// must not grow with the number of jobs it could walk. Synchronous
// R-pattern sets go to the first-job fixed point and allocate nothing,
// accepted or rejected: short and long (short's load over a 10x longer
// (m,k)-hyperperiod) pass, first fails the first-job sum (8 + 8 > 10),
// and overload passes that sum (3 + 5 ≤ 10) but not the fixed point
// (τ1's job at 5 ms pushes τ2's first job to 11 ms). The E-pattern still
// walks: the walk over long allocates exactly as often as over short, and
// late passes the first-job sum (1 + 2 ≤ 3) and misses a later job —
// τ2's third job, released at 6 ms, meets τ1's jobs at 6 and 8 ms and is
// still running at its 9 ms deadline — so its rejecting walk allocates
// exactly as often as an accepting one.
func TestFilterAllocsIndependentOfHyperperiod(t *testing.T) {
	short := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	long := task.NewSet(task.New(0, 5, 4, 3, 20, 40), task.New(1, 10, 10, 3, 10, 20))
	first := task.NewSet(task.New(0, 10, 10, 8, 1, 2), task.New(1, 10, 10, 8, 1, 2))
	overload := task.NewSet(task.New(0, 5, 5, 3, 1, 1), task.New(1, 10, 10, 5, 1, 1))
	late := task.NewSet(task.New(0, 2, 2, 1, 3, 4), task.New(1, 3, 3, 2, 1, 2))
	const cap = 10 * timeu.Second
	if h, l := short.MKHyperperiod(cap), long.MKHyperperiod(cap); l < 10*h {
		t.Fatalf("hyperperiods %v and %v: premise broken", h, l)
	}
	if m := rta.PostponedMisses(late, pattern.EPattern, late.MKHyperperiod(cap), make([]timeu.Time, 2)); len(m) == 0 || m[0].Index < 2 {
		t.Fatalf("misses %+v: want the first miss on a later job", m)
	}
	if !rta.FirstJobsFit(overload) {
		t.Fatal("overload fails the first-job sum: premise broken")
	}
	allocs := func(s *task.Set, kind pattern.Kind, want bool) float64 {
		if rta.SchedulableRPattern(s, kind, cap) != want {
			t.Fatalf("set %v: want schedulable=%v", s, want)
		}
		return testing.AllocsPerRun(50, func() { rta.SchedulableRPattern(s, kind, cap) })
	}
	for name, c := range map[string]struct {
		s    *task.Set
		want bool
	}{
		"short": {short, true}, "long": {long, true}, "first": {first, false}, "overload": {overload, false},
	} {
		if got := allocs(c.s, pattern.RPattern, c.want); got != 0 {
			t.Errorf("R-pattern %s (schedulable=%v) allocates %v times, want 0", name, c.want, got)
		}
	}
	base := allocs(short, pattern.EPattern, true)
	if got := allocs(long, pattern.EPattern, true); got != base {
		t.Errorf("E-pattern walk over the 10x hyperperiod allocates %v times, over the short one %v", got, base)
	}
	if got := allocs(late, pattern.EPattern, false); got != base {
		t.Errorf("rejecting E-pattern walk allocates %v times, accepting walk %v", got, base)
	}
}

// TestWalkStopsAtFirstBacklog pins an overload FuzzCriticalInstantMatchesWalk
// found. τ1 keeps the processor busy (C = P = 2 µs), so τ2's first job
// never runs. A filter walk that queued every later τ2 release until the
// 10 s horizon would scan that queue on each of τ1's 5 million releases
// and run for minutes. It must reject at τ2's second release, under
// either pattern.
func TestWalkStopsAtFirstBacklog(t *testing.T) {
	s := task.NewSet(task.New(0, 0.002, 0.002, 0.002, 4, 4), task.New(1, 0.26, 0.24, 0.08, 16, 20))
	for _, kind := range []pattern.Kind{pattern.RPattern, pattern.EPattern} {
		done := make(chan bool, 1)
		go func() { done <- rta.WalkFilter(s, kind, 10*timeu.Second) }()
		select {
		case ok := <-done:
			if ok {
				t.Errorf("%v: walk accepts an overloaded set", kind)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: walk did not return within 10 s", kind)
		}
	}
}

// filterCorpus draws §V candidate sets with (m,k)-utilization in
// [lo, hi) until it holds n on which the filter answers want.
func filterCorpus(lo, hi float64, want bool, n int) []*task.Set {
	cfg := workload.DefaultConfig()
	gen := workload.NewGenerator(cfg, 5)
	rng := stats.NewRand(11)
	var out []*task.Set
	for len(out) < n {
		s, err := gen.Candidate(lo + (hi-lo)*rng.Float64())
		if err == nil && rta.SchedulableRPattern(s, cfg.Pattern, cfg.SchedCap) == want {
			out = append(out, s)
		}
	}
	return out
}

var filterSink bool

// benchFilter times the candidate filter per walk over a fixed corpus:
// the two sides of the Fig-6 sweep, where the filter accepts most of
// what it walks to the end and where it rejects nearly everything early.
func benchFilter(b *testing.B, sets []*task.Set) {
	cfg := workload.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			filterSink = rta.SchedulableRPattern(s, cfg.Pattern, cfg.SchedCap)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets))/1e3, "us/walk")
}

func BenchmarkFilterAccept(b *testing.B) { benchFilter(b, filterCorpus(0.1, 0.6, true, 100)) }
func BenchmarkFilterReject(b *testing.B) { benchFilter(b, filterCorpus(0.7, 1.0, false, 2000)) }
