// Package rta implements fixed-priority response-time analysis and the
// derived quantities the paper needs: the worst-case response time Ri of
// each task, the dual-priority promotion time Yi = Di − Ri (Eq. (2)), and
// schedulability tests — the classic exact RTA test over full periodic
// interference, plus Theorem 1's premise that the mandatory jobs are
// schedulable: one first-job fixed point per task for synchronous
// R-pattern sets (mkrta.go), else a walk of the mandatory-only schedule
// over the (m,k)-hyperperiod, which also profiles it for the twin.
package rta

import (
	"fmt"
	"math"

	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// ErrUnschedulable is wrapped by analysis errors when a task cannot meet
// its deadline.
type ErrUnschedulable struct {
	TaskID int
	Detail string
}

func (e *ErrUnschedulable) Error() string {
	return fmt.Sprintf("rta: task %d unschedulable: %s", e.TaskID+1, e.Detail)
}

// ResponseTime computes the worst-case response time of task i in set s
// under preemptive fixed-priority scheduling with full periodic
// interference from all higher-priority tasks (each task treated as
// strictly periodic — the paper's Eq. (2) uses this standard analysis;
// its example set τ1=(5,4,3,2,4), τ2=(10,10,3,1,2) yields R1=3, R2=9 and
// hence Y1=Y2=1, matching §III).
//
// The fixed-point iteration R = Ci + Σ_{j<i} ⌈R/Pj⌉·Cj starts from Ci and
// stops when it converges or exceeds the deadline, in which case an
// *ErrUnschedulable is returned. The sum saturates at the largest Time
// instead of wrapping, and a saturated iterate is past every deadline.
func ResponseTime(s *task.Set, i int) (timeu.Time, error) {
	t := s.Tasks[i]
	r := t.WCET
	for {
		next := t.WCET
		for j := 0; j < i; j++ {
			hp := &s.Tasks[j]
			next = addJobs(next, timeu.CeilDiv(r, hp.Period), hp.WCET)
		}
		if next == r {
			return r, nil
		}
		if next > t.Deadline || next == math.MaxInt64 {
			return next, &ErrUnschedulable{TaskID: i, Detail: fmt.Sprintf("response time exceeds deadline %v", t.Deadline)}
		}
		r = next
	}
}

// ResponseTimes computes all response times; it fails on the first
// unschedulable task.
func ResponseTimes(s *task.Set) ([]timeu.Time, error) {
	out := make([]timeu.Time, s.N())
	for i := range s.Tasks {
		r, err := ResponseTime(s, i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// PromotionTimes computes Yi = Di − Ri (Eq. (2)) for every task: the
// amount by which a backup job may be procrastinated under the
// dual-priority scheme while still meeting its deadline.
func PromotionTimes(s *task.Set) ([]timeu.Time, error) {
	rs, err := ResponseTimes(s)
	if err != nil {
		return nil, err
	}
	ys := make([]timeu.Time, len(rs))
	for i, r := range rs {
		ys[i] = s.Tasks[i].Deadline - r
	}
	return ys, nil
}

// ResponseTimesSafe computes every task's worst-case response time with a
// divergence fallback instead of an error: converged[i] reports whether
// the fixed point settled within the deadline; when it did not, rs[i] is
// the first iterate past the deadline (an under-approximation of the true,
// possibly unbounded, response time). The pair is the memoizable "RTA
// response times" product consumed by internal/analysis.
func ResponseTimesSafe(s *task.Set) (rs []timeu.Time, converged []bool) {
	rs = make([]timeu.Time, s.N())
	converged = make([]bool, s.N())
	for i := range s.Tasks {
		r, err := ResponseTime(s, i)
		rs[i] = r
		converged[i] = err == nil
	}
	return rs, converged
}

// PromotionTimesSafe computes Yi = Di − Ri like PromotionTimes but never
// fails: tasks whose full-interference response time diverges past the
// deadline get Yi = 0 (no procrastination — the dual-priority baseline
// degenerates to concurrent execution for them). This matters for (m,k)
// workloads that are R-pattern-schedulable without being fully
// schedulable: the baselines still need *some* promotion interval.
func PromotionTimesSafe(s *task.Set) []timeu.Time {
	rs, converged := ResponseTimesSafe(s)
	return PromotionFromResponse(s, rs, converged)
}

// PromotionFromResponse derives the promotion intervals Yi = Di − Ri from
// already-computed response times (Eq. 2 with the divergence fallback of
// PromotionTimesSafe). It lets callers holding memoized response times
// avoid re-running the fixed-point iteration.
func PromotionFromResponse(s *task.Set, rs []timeu.Time, converged []bool) []timeu.Time {
	ys := make([]timeu.Time, s.N())
	for i := range s.Tasks {
		if !converged[i] {
			ys[i] = 0
			continue
		}
		ys[i] = s.Tasks[i].Deadline - rs[i]
	}
	return ys
}

// SchedulableRTA reports whether the full task set (every job of every
// task, ignoring (m,k) slack) is FP-schedulable by exact response-time
// analysis. This is sufficient but pessimistic for (m,k) systems.
func SchedulableRTA(s *task.Set) bool {
	_, err := ResponseTimes(s)
	return err == nil
}

// job is one mandatory job streamed by mandIter. While it waits in a
// walk's ready queue, left is its unexecuted WCET.
type job struct {
	taskID, index     int // index is the 1-based job index
	release, deadline timeu.Time
	left              timeu.Time
}

// mandCursor tracks one task's next mandatory release during the k-way
// merge of the per-task mandatory-job streams.
type mandCursor struct {
	j       int // next mandatory job index (1-based); 0 = exhausted
	release timeu.Time
}

// mandIter streams the mandatory jobs of a set released in [0, horizon)
// in (release, priority) order: a k-way merge of the per-task streams, so
// no walk materializes a hyperperiod-sized job slice. A non-nil theta
// postpones task i's releases by theta[i] (Eq. 3) inside the merge; the
// horizon and the deadlines stay those of the nominal releases.
type mandIter struct {
	s       *task.Set
	kind    pattern.Kind
	horizon timeu.Time
	theta   []timeu.Time
	cur     []mandCursor
}

//mklint:hotpath
func (it *mandIter) init(s *task.Set, kind pattern.Kind, horizon timeu.Time, theta []timeu.Time) {
	it.s, it.kind, it.horizon, it.theta = s, kind, horizon, theta
	it.cur = make([]mandCursor, len(s.Tasks))
	for i := range s.Tasks {
		it.advance(i, 0)
	}
}

// advance moves task i's cursor to its next mandatory release in
// [0, horizon), starting after job index from.
//
//mklint:hotpath
func (it *mandIter) advance(i, from int) {
	t := &it.s.Tasks[i]
	for j := from + 1; ; j++ {
		r := t.Release(j)
		if r >= it.horizon {
			it.cur[i] = mandCursor{}
			return
		}
		if pattern.Mandatory(it.kind, j, t.M, t.K) {
			if it.theta != nil {
				r += it.theta[i]
			}
			it.cur[i] = mandCursor{j: j, release: r}
			return
		}
	}
}

// next returns the next mandatory job in (release, priority) order; ok is
// false once the streams are exhausted.
//
//mklint:hotpath
func (it *mandIter) next() (jb job, ok bool) {
	// Lowest release wins; the scan order breaks ties by priority.
	best := -1
	for i := range it.cur {
		if it.cur[i].j > 0 && (best < 0 || it.cur[i].release < it.cur[best].release) {
			best = i
		}
	}
	if best < 0 {
		return job{}, false
	}
	t := &it.s.Tasks[best]
	j := it.cur[best].j
	jb = job{
		taskID:   t.ID,
		index:    j,
		release:  it.cur[best].release,
		deadline: t.AbsDeadline(j),
		left:     t.WCET,
	}
	it.advance(best, j)
	return jb, true
}

// walk runs the preemptive fixed-priority schedule of the streamed jobs
// on one processor: at every instant the released job of highest
// priority (lowest task index, then earliest job) runs until it completes
// or the next release preempts it. It is the one loop behind the
// candidate filter for E-pattern and offset sets, the twin's mandatory
// profile and the postponed-backup check.
//
// With rec == nil the walk is the filter: it reports false at the first
// job that completes late, that cannot finish by its deadline even with
// the processor to itself, or that is still queued when its task releases
// again (Dᵢ ≤ Pᵢ puts its deadline at or before that release), so an
// overload stops at its first backlog instead of queueing jobs until the
// horizon. With a record it runs to the end, filling in idle gaps, job
// counts, busy time, worst responses and misses, and reports whether no
// job missed.
//
//mklint:hotpath
func (it *mandIter) walk(rec *record) bool {
	// ready holds the released, unfinished jobs by priority; ready[0] runs.
	ready := make([]job, 0, len(it.cur))
	now := timeu.Time(0)
	pend, havePend := it.next()
	for havePend || len(ready) > 0 {
		// An empty queue means a release is pending: idle until it.
		if len(ready) == 0 && pend.release > now {
			if rec != nil {
				rec.Gaps = append(rec.Gaps, pend.release-now)
			}
			now = pend.release
		}
		for havePend && pend.release <= now {
			if rec != nil {
				rec.Count[pend.taskID]++
				rec.Busy += pend.left
			}
			var backlog bool
			if ready, backlog = enqueue(ready, pend); backlog && rec == nil {
				return false
			}
			pend, havePend = it.next()
		}
		// Run the head until it completes or the next release, whichever
		// comes first. The clock saturates at the largest Time instead of
		// wrapping: a job that would complete past it misses anyway.
		cur := &ready[0]
		run := cur.left
		if havePend && pend.release-now < run {
			run = pend.release - now
		}
		cur.left -= run
		now = min(now, math.MaxInt64-run) + run
		if cur.left > 0 {
			if rec == nil && cur.left > cur.deadline-now {
				return false
			}
			continue
		}
		if now > cur.deadline {
			if rec == nil {
				return false
			}
			rec.misses = append(rec.misses, Miss{
				TaskID:     cur.taskID,
				Index:      cur.index,
				Completion: now,
				Deadline:   cur.deadline,
			})
		}
		if rec != nil && now-cur.release > rec.MaxResponse[cur.taskID] {
			rec.MaxResponse[cur.taskID] = now - cur.release
		}
		// Pop the head in place: the array is reused, not regrown.
		ready = ready[:copy(ready, ready[1:])]
	}
	if rec == nil {
		return true
	}
	if now < it.horizon {
		rec.Gaps = append(rec.Gaps, it.horizon-now)
	}
	return len(rec.misses) == 0
}

// enqueue inserts jb into ready behind every job of equal or higher
// priority and reports whether an earlier job of jb's task is still
// queued. A task's jobs arrive in index order, so equal task indices stay
// in job order.
//
//mklint:hotpath
func enqueue(ready []job, jb job) ([]job, bool) {
	pos := len(ready)
	for pos > 0 && ready[pos-1].taskID > jb.taskID {
		pos--
	}
	ready = append(ready, job{})
	copy(ready[pos+1:], ready[pos:])
	ready[pos] = jb
	return ready, pos > 0 && ready[pos-1].taskID == jb.taskID
}

// SchedulableRPattern reports whether the mandatory jobs under the static
// pattern, released at their offsets (synchronously at 0 in the paper's
// model), all meet their deadlines under preemptive FP scheduling — the
// schedulability premise of Theorem 1, so a pass certifies the
// (m,k)-deadlines under Algorithm 1.
//
// firstJobsFit runs first for every set, so most rejects cost O(n). A
// synchronous R-pattern set is then decided exactly by
// criticalInstantFits, one first-job fixed point per task. The E-pattern
// and sets with non-zero offsets walk the mandatory-only schedule over
// the (m,k)-hyperperiod, saturated at cap, and stop at the first miss. A
// saturated walk checks every job released in [0, cap) but is no longer
// exact. The two agree whenever cap is at least every deadline. A cap ≤ 0
// or an empty set reports false.
func SchedulableRPattern(s *task.Set, kind pattern.Kind, cap timeu.Time) bool {
	if cap <= 0 || len(s.Tasks) == 0 || !firstJobsFit(s) {
		return false
	}
	if kind == pattern.RPattern && synchronous(s) {
		return criticalInstantFits(s)
	}
	return walkFilter(s, kind, cap)
}

// firstJobsFit is the filter's O(n), allocation-free necessary test.
// With synchronous releases job 1 of every task is mandatory under both
// the R- and the E-pattern and released at 0, so task i's first job
// cannot complete before C₁+…+Cᵢ: a sum above Dᵢ means the walk would
// reject too. The sum stops at the first task with a non-zero offset.
// Each WCET is checked against the remaining budget, so it cannot wrap.
//
//mklint:hotpath
func firstJobsFit(s *task.Set) bool {
	var demand timeu.Time
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Offset != 0 {
			return true
		}
		if t.WCET > t.Deadline-demand {
			return false
		}
		demand += t.WCET
	}
	return true
}

// synchronous reports whether every task releases its first job at 0.
//
//mklint:hotpath
func synchronous(s *task.Set) bool {
	for i := range s.Tasks {
		if s.Tasks[i].Offset != 0 {
			return false
		}
	}
	return true
}

// walkFilter is SchedulableRPattern's walk for the E-pattern and for
// offsets: the filter walk over the (m,k)-hyperperiod saturated at cap.
func walkFilter(s *task.Set, kind pattern.Kind, cap timeu.Time) bool {
	horizon := s.MKHyperperiod(cap)
	if horizon <= 0 {
		return false
	}
	var it mandIter
	it.init(s, kind, horizon, nil)
	return it.walk(nil)
}
