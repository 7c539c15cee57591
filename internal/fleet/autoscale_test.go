package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeMember is a stub worker for the autoscaler: a /healthz endpoint
// whose load signal the test controls.
type fakeMember struct {
	ts       *httptest.Server
	queued   atomic.Int64
	inflight atomic.Int64
	stopped  atomic.Bool
}

func newFakeMember(t *testing.T) *fakeMember {
	t.Helper()
	m := &fakeMember{}
	m.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if err := json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "queued": m.queued.Load(), "inflight": m.inflight.Load(),
		}); err != nil {
			t.Errorf("fake healthz encode: %v", err)
		}
	}))
	t.Cleanup(m.ts.Close)
	return m
}

func (m *fakeMember) addr() string { return strings.TrimPrefix(m.ts.URL, "http://") }

// fakeSpawner hands out fakeMembers and records them.
type fakeSpawner struct {
	t  *testing.T
	mu sync.Mutex
	ms []*fakeMember
}

func (s *fakeSpawner) spawn(ctx context.Context) (*WorkerHandle, error) {
	m := newFakeMember(s.t)
	s.mu.Lock()
	s.ms = append(s.ms, m)
	s.mu.Unlock()
	return &WorkerHandle{Addr: m.addr(), Stop: func() { m.stopped.Store(true) }}, nil
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
		UpAfter:      2,
		DownAfter:    3,
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
	sp := &fakeSpawner{t: t}
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

// TestPoolHysteresisIgnoresOneSample pins the streak gate: a single
// busy tick must not grow the pool.
func TestPoolHysteresisIgnoresOneSample(t *testing.T) {
	sp := &fakeSpawner{t: t}
	cfg := fastPool(sp, 1, 3)
	cfg.UpAfter = 1000 // effectively never
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
	sp.members()[0].queued.Store(100)
	time.Sleep(100 * time.Millisecond) // many busy ticks, streak below UpAfter
	if got := p.Stats().Size; got != 1 {
		t.Fatalf("pool grew to %d below the UpAfter streak", got)
	}
}

// TestPoolStopStopsEveryMember pins shutdown: Stop retires the whole
// pool, including members added by scale-ups.
func TestPoolStopStopsEveryMember(t *testing.T) {
	sp := &fakeSpawner{t: t}
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
		return &WorkerHandle{Addr: addr, Stop: func() {}}, nil
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
