package sim

// Every function in this file is per-run working-state machinery reused
// across batch runs; keep it allocation-free.
//mklint:hotpath file

import (
	"sync"

	"repro/internal/task"
	"repro/internal/timeu"
)

// arenaChunk is the allocation granularity of an arena. Chunking keeps
// pointers stable (no reallocation moves a handed-out record) while a
// batch of simulations amortizes each make to 64 records.
const arenaChunk = 64

// arena is a reusable bump allocator for per-run records. get hands out a
// pointer into a chunk; the record may hold stale data from a previous
// run, so callers must fully overwrite it. reset recycles every record
// while retaining the chunks.
type arena[T any] struct {
	chunks [][]T
	n      int
}

func (a *arena[T]) get() *T {
	ci, off := a.n/arenaChunk, a.n%arenaChunk
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	a.n++
	return &a.chunks[ci][off]
}

func (a *arena[T]) reset() { a.n = 0 }

// at returns the record the i-th get since the last reset handed out.
func (a *arena[T]) at(i int) *T { return &a.chunks[i/arenaChunk][i%arenaChunk] }

// Scratch is the reusable working state of one engine run: job and pair
// records, per-processor ready queues, the settlement table, the release
// calendar, outcome rows and the trace buffer. A fresh engine with a warm
// Scratch allocates (almost) nothing; Result values copy out of it, so
// reusing a Scratch never corrupts previously returned results.
//
// A Scratch serves one engine at a time — share across concurrent runs
// through a ScratchPool, never directly. A sweep hands one Scratch to
// each worker for its whole lifetime (see experiment.RunContext), so the
// arenas and the pair table rows amortize across every interval of the
// sweep, not just across the approaches of one set.
type Scratch struct {
	// nextIdx[i] is the index of task i's next release and nextRel[i] its
	// instant, Release(nextIdx[i]): the release calendar processReleases
	// drains and advances by one period per release.
	nextIdx []int
	nextRel []timeu.Time
	// pairTab is the settlement table: pairTab[taskID][index-1] is the
	// jobPair of J_(taskID,index), nil until the job is admitted or
	// skipped. Job indices are dense and released in order, so a slice
	// row beats a map: no hashing on the admit/settle path.
	pairTab  [][]*jobPair
	open     []*jobPair
	due      []*jobPair
	live     [NumProcs][]*task.Job
	outcomes [][]bool
	trace    []Segment
	jobs     arena[task.Job]
	jobPairs arena[jobPair]
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
// emptied (capacity retained) and the arenas are rewound.
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
	if cap(s.pairTab) < n {
		s.pairTab = make([][]*jobPair, n)
	}
	s.pairTab = s.pairTab[:n]
	for i := range s.pairTab {
		s.pairTab[i] = s.pairTab[i][:0]
	}
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
	s.jobs.reset()
	s.jobPairs.reset()
	s.minRel = timeu.Infinity
	s.dueAt = timeu.Infinity
}

// pairSlot returns the settlement-table slot of J_(taskID,index), growing
// the task's row on first touch. Rows grow by at most one live window per
// admit (indices arrive in release order), so growth is amortized O(1)
// and the capacity is retained across runs.
func (s *Scratch) pairSlot(taskID, index int) **jobPair {
	row := s.pairTab[taskID]
	for len(row) < index {
		row = append(row, nil)
	}
	s.pairTab[taskID] = row
	return &row[index-1]
}

// pairAt returns the jobPair of an admitted or skipped job; the job must
// have a slot (callers only look up jobs that went through Admit).
func (s *Scratch) pairAt(taskID, index int) *jobPair {
	return s.pairTab[taskID][index-1]
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
// been assembled. Safe on a nil pool (returns a fresh Scratch).
func (sp *ScratchPool) Get() *Scratch {
	if sp == nil {
		return NewScratch()
	}
	return sp.pool.Get().(*Scratch)
}

// Put returns a Scratch to the pool. Safe on a nil pool (drops it).
func (sp *ScratchPool) Put(s *Scratch) {
	if sp == nil || s == nil {
		return
	}
	sp.pool.Put(s)
}
