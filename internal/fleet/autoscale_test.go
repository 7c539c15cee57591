package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeMember is a stub worker for the autoscaler: a load signal the
// test controls.
type fakeMember struct {
	queued   atomic.Int64
	inflight atomic.Int64
	stopped  atomic.Bool
}

func (m *fakeMember) load() (queued, inflight int64) { return m.queued.Load(), m.inflight.Load() }

// fakeSpawner hands out fakeMembers and records them.
type fakeSpawner struct {
	mu sync.Mutex
	ms []*fakeMember
}

func (s *fakeSpawner) spawn(ctx context.Context) (*WorkerHandle, error) {
	m := &fakeMember{}
	s.mu.Lock()
	s.ms = append(s.ms, m)
	addr := fmt.Sprintf("fake-%d", len(s.ms))
	s.mu.Unlock()
	return &WorkerHandle{Addr: addr, Stop: func() { m.stopped.Store(true) }, Load: m.load}, nil
}

func (s *fakeSpawner) members() []*fakeMember {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*fakeMember(nil), s.ms...)
}

// fastPool returns a PoolConfig tuned for test latencies.
func fastPool(sp *fakeSpawner, min, max int) PoolConfig {
	return PoolConfig{
		Min: min, Max: max, Spawn: sp.spawn,
		Interval:     5 * time.Millisecond,
		ScaleUpQueue: 5,
		Cooldown:     time.Millisecond,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestPoolScalesUpUnderLoadAndDrainsToMin pins the elastic loop end to
// end: sustained queue pressure grows the pool toward Max, sustained
// idleness shrinks it back to Min, and the retired members are the
// newest ones, actually stopped.
func TestPoolScalesUpUnderLoadAndDrainsToMin(t *testing.T) {
	sp := &fakeSpawner{}
	p, err := NewPool(fastPool(sp, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if got := len(p.Addrs()); got != 1 {
		t.Fatalf("pool started with %d members, want the Min baseline of 1", got)
	}

	// Pressure on the baseline worker: the pool must grow to Max.
	sp.members()[0].queued.Store(10)
	waitFor(t, func() bool { return p.Stats().Size == 3 }, "pool never scaled up to Max under sustained queue pressure")

	// Load vanishes everywhere: the pool must drain back to Min.
	for _, m := range sp.members() {
		m.queued.Store(0)
	}
	waitFor(t, func() bool { return p.Stats().Size == 1 }, "pool never drained back to Min after load vanished")

	st := p.Stats()
	if st.ScaleUps < 2 || st.ScaleDowns < 2 {
		t.Errorf("stats = %+v, want at least 2 scale-ups and 2 scale-downs", st)
	}
	// LIFO retirement: the baseline (first-spawned) member survives.
	ms := sp.members()
	if ms[0].stopped.Load() {
		t.Error("baseline member was stopped; retirement must be newest-first")
	}
	if !ms[len(ms)-1].stopped.Load() {
		t.Error("newest member was not stopped on scale-down")
	}
}

// TestPoolHysteresisIgnoresOneSample pins the streak gate on the
// control loop's own ticks: one busy tick leaves the size alone, a mixed
// tick resets the streak, and two consecutive busy ticks grow the pool.
func TestPoolHysteresisIgnoresOneSample(t *testing.T) {
	sp := &fakeSpawner{}
	cfg := fastPool(sp, 1, 3)
	cfg.Interval = time.Hour // no loop tick interleaves with the test's
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	m := sp.members()[0]
	for i, step := range []struct {
		queued, inflight int64
		size             int
	}{
		{queued: 100, size: 1}, // one busy tick
		{inflight: 1, size: 1}, // mixed: the busy streak resets
		{queued: 100, size: 1}, // busy again, a streak of one
		{queued: 100, size: 2}, // two consecutive busy ticks grow the pool
	} {
		m.queued.Store(step.queued)
		m.inflight.Store(step.inflight)
		p.tick(ctx)
		if got := p.Stats().Size; got != step.size {
			t.Fatalf("tick %d (queued %d, inflight %d): size %d, want %d",
				i, step.queued, step.inflight, got, step.size)
		}
	}
}

// TestPoolStopStopsEveryMember pins shutdown: Stop retires the whole
// pool, including members added by scale-ups.
func TestPoolStopStopsEveryMember(t *testing.T) {
	sp := &fakeSpawner{}
	p, err := NewPool(fastPool(sp, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	p.Stop() // idempotent
	for i, m := range sp.members() {
		if !m.stopped.Load() {
			t.Errorf("member %d not stopped by Stop", i)
		}
	}
	if got := p.Stats().Size; got != 0 {
		t.Errorf("stats size = %d after Stop, want 0", got)
	}
}

// TestFleetElasticPoolRunsSweep pins the coordinator/pool integration:
// a coordinator configured with only a Pool (no static workers) adopts
// the pool's members and produces the batch-identical stream.
func TestFleetElasticPoolRunsSweep(t *testing.T) {
	spawn := func(ctx context.Context) (*WorkerHandle, error) {
		addr, _ := newWorker(t)
		return &WorkerHandle{Addr: addr, Stop: func() {}, Load: func() (int64, int64) { return 0, 0 }}, nil
	}
	p, err := NewPool(PoolConfig{Min: 2, Max: 2, Spawn: spawn, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	spec := testSpec()
	cfg := fastConfig(t, nil, spec)
	cfg.Pool = p
	lines, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.Dispatched != 3 || len(sum.Workers) != 2 {
		t.Errorf("summary = %+v, want 3 dispatched over 2 adopted workers", sum)
	}
}

// TestFleetElasticPoolGrowsOnBacklog pins the sweep's own load signal: a
// coordinator that holds units back because every worker is at its
// dispatch bound reports them as the pool's backlog, so a pool whose
// members queue nothing still grows, and the new member is sent units.
func TestFleetElasticPoolGrowsOnBacklog(t *testing.T) {
	spawn := func(ctx context.Context) (*WorkerHandle, error) {
		addr, c := newWorker(t)
		c.stallNS.Store(int64(300 * time.Millisecond)) // one unit outlasts two pool ticks
		return &WorkerHandle{Addr: addr, Stop: func() {}, Load: func() (int64, int64) { return 0, 0 }}, nil
	}
	// The cooldown keeps the grown pool until the sweep ends.
	p, err := NewPool(PoolConfig{Min: 1, Max: 2, Spawn: spawn, Interval: 5 * time.Millisecond,
		ScaleUpQueue: 2, Cooldown: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	spec := testSpec()
	cfg := fastConfig(t, nil, spec)
	cfg.Pool = p
	cfg.PerWorkerInFlight = 1 // one worker takes one of the three units; two wait
	lines, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if st := p.Stats(); st.ScaleUps != 1 || st.Size != 2 {
		t.Errorf("pool stats = %+v, want one scale-up to 2 members", st)
	}
	if len(sum.Workers) != 2 || sum.Workers[1].Dispatched == 0 {
		t.Errorf("summary = %+v, want units dispatched to the grown member", sum)
	}
	p.mu.Lock()
	backlog := p.backlog
	p.mu.Unlock()
	if backlog != 0 {
		t.Errorf("backlog = %d after the sweep, want 0", backlog)
	}
}
