package sim

// Every function in this file is per-run working-state machinery reused
// across batch runs; keep it allocation-free.
//mklint:hotpath file

import (
	"fmt"
	"sync"

	"repro/internal/task"
	"repro/internal/timeu"
)

// Scratch is the reusable working state of one engine run: each task's
// pair slot and job records, the per-processor ready queues, the release
// calendar, outcome rows and the trace buffer. A fresh engine with a warm
// Scratch allocates (almost) nothing; Result values copy out of it, so
// reusing a Scratch never corrupts previously returned results.
//
// A Scratch serves one engine at a time — share across concurrent runs
// through a ScratchPool, never directly. A sweep hands one Scratch to
// each worker for its whole lifetime (see experiment.RunContext), so the
// slots and queues amortize across every interval of the sweep, not just
// across the approaches of one set.
type Scratch struct {
	// nextIdx[i] is the index of task i's next release and nextRel[i] its
	// instant, Release(nextIdx[i]): the release calendar processReleases
	// drains and advances by one period per release.
	nextIdx []int
	nextRel []timeu.Time
	// pairs[i] is task i's pair slot: the pair of its open job, or of its
	// last settled one. A task has at most one open job (see slot), so one
	// slot per task is the whole settlement table. jobs[i] holds task i's
	// job records: NewJob hands out jobs[i][task.Main] and NewBackup
	// jobs[i][task.Backup], and a resumed run fills them in its pair's
	// copy order (a pair has at most NumProcs copies).
	pairs    []jobPair
	jobs     [][NumProcs]task.Job
	open     []*jobPair
	due      []*jobPair
	live     [NumProcs][]*task.Job
	outcomes [][]bool
	trace    []Segment
	// minRel caches the next task release and dueAt a lower bound on the
	// earliest open deadline, so the per-event release and settlement
	// scans run only when due, and the stop scan reads the next release
	// without visiting every task.
	minRel timeu.Time
	dueAt  timeu.Time
}

// NewScratch builds an empty Scratch; it warms up over its first run.
func NewScratch() *Scratch {
	return &Scratch{}
}

// prepare readies the scratch for a run over n tasks: every container is
// emptied (capacity retained) and every pair slot cleared. Job records
// keep stale data; NewJob, NewBackup and resume overwrite them whole.
func (s *Scratch) prepare(n int) {
	if cap(s.nextIdx) < n {
		s.nextIdx = make([]int, n)
	}
	s.nextIdx = s.nextIdx[:n]
	for i := range s.nextIdx {
		s.nextIdx[i] = 1
	}
	if cap(s.nextRel) < n {
		s.nextRel = make([]timeu.Time, n)
	}
	s.nextRel = s.nextRel[:n]
	if cap(s.pairs) < n {
		s.pairs = make([]jobPair, n)
		s.jobs = make([][NumProcs]task.Job, n)
	}
	s.pairs = s.pairs[:n]
	clear(s.pairs)
	s.jobs = s.jobs[:n]
	s.open = s.open[:0]
	s.due = s.due[:0]
	for p := 0; p < NumProcs; p++ {
		s.live[p] = s.live[p][:0]
	}
	if cap(s.outcomes) < n {
		s.outcomes = make([][]bool, n)
	}
	s.outcomes = s.outcomes[:n]
	for i := range s.outcomes {
		s.outcomes[i] = s.outcomes[i][:0]
	}
	s.trace = s.trace[:0]
	s.minRel = timeu.Infinity
	s.dueAt = timeu.Infinity
}

// slot returns task taskID's pair slot on behalf of its job index. The
// task model has D ≤ P and every stop settles deadlines before it
// releases, so a task's job settles by the next one's release: slot
// panics, naming the task and both indices, when the slot still holds
// another job that is open.
func (s *Scratch) slot(taskID, index int) *jobPair {
	p := &s.pairs[taskID]
	if p.open() && p.key.index != index {
		panic(fmt.Sprintf("sim: task %d job %d while job %d is still open", taskID+1, index, p.key.index))
	}
	return p
}

// ScratchPool shares Scratch values between concurrent workers via a
// sync.Pool. The zero value is unusable; use NewScratchPool.
type ScratchPool struct {
	pool sync.Pool
}

// NewScratchPool builds a pool that mints a fresh Scratch on demand.
func NewScratchPool() *ScratchPool {
	sp := &ScratchPool{}
	sp.pool.New = func() any { return NewScratch() }
	return sp
}

// Get borrows a Scratch; return it with Put once the run's Result has
// been assembled.
func (sp *ScratchPool) Get() *Scratch { return sp.pool.Get().(*Scratch) }

// Put returns a Scratch to the pool.
func (sp *ScratchPool) Put(s *Scratch) { sp.pool.Put(s) }
