package fleet

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// WorkerHandle is one elastic worker the pool spawned: its serving
// address, the hook that stops it (cancel + wait — Stop must not
// return until the worker's goroutines are done, so the pool never
// leaks a worker it retired), and the hook that reads its load.
type WorkerHandle struct {
	Addr string
	Stop func()
	// Load reports the worker's jobs waiting for an execution slot and
	// its requests in flight (in cmd/mkfleet, serve.Server.Load). The
	// control loop calls it under the pool lock, so it must not block.
	Load func() (queued, inflight int64)
}

// SpawnFunc starts one worker and returns its handle. The context is
// the pool's lifetime: implementations should tie the worker's serve
// loop to it so Pool.Stop (or the surrounding run's cancellation)
// tears every worker down even if Stop hooks misbehave.
type SpawnFunc func(ctx context.Context) (*WorkerHandle, error)

// PoolConfig tunes an elastic worker pool. Zero values pick the
// documented defaults.
type PoolConfig struct {
	// Min/Max bound the pool size. Min workers are spawned synchronously
	// by Start and the pool never shrinks below Min nor grows past Max
	// (defaults 1 and 4).
	Min, Max int
	// Spawn starts one worker (required).
	Spawn SpawnFunc
	// Interval is the control-loop cadence: each tick sums every
	// member's Load and feeds the scaling decision (default 2s).
	Interval time.Duration
	// ScaleUpQueue is the summed queued-jobs threshold: a tick observing
	// at least this many queued jobs across the pool (its members'
	// queues plus the units a coordinator holds undispatched) counts
	// toward scaling up (default 4).
	ScaleUpQueue int64
	// Cooldown is the minimum gap between consecutive scaling
	// operations, in either direction (default 30s).
	Cooldown time.Duration
	// Log receives scaling decisions; nil discards them.
	Log io.Writer
	// Now is the wall clock (tests inject a fake); nil means time.Now.
	Now func() time.Time
}

// PoolStats is a snapshot of the pool's state and lifetime counters.
type PoolStats struct {
	Size          int      `json:"size"`
	Min           int      `json:"min"`
	Max           int      `json:"max"`
	ScaleUps      int      `json:"scale_ups"`
	ScaleDowns    int      `json:"scale_downs"`
	SpawnFailures int      `json:"spawn_failures"`
	Addrs         []string `json:"addrs"`
}

// The hysteresis streaks: only upAfter consecutive busy ticks grow the
// pool, and only downAfter consecutive idle ticks (zero queued AND zero
// in flight everywhere) shrink it. One anomalous sample never flaps the
// pool.
const (
	upAfter   = 2
	downAfter = 5
)

// Pool is an elastic set of mkservd workers driven by observed load: a
// control loop sums the queue depth wherever the pool's jobs wait, at
// every member and in a coordinator that feeds it, and scales between
// Min and Max on it, with streak hysteresis and a cooldown so the pool
// reacts to sustained pressure, not noise.
//
// Members are spawned via the configured SpawnFunc — typically an
// in-process serve.Server on a loopback listener (see cmd/mkfleet) —
// and retired newest-first, so the Min baseline workers are the
// longest-lived and their caches the warmest.
type Pool struct {
	cfg PoolConfig

	mu        sync.Mutex
	members   []*WorkerHandle
	stats     PoolStats
	lastScale time.Time
	upStreak  int
	idleStrk  int
	// backlog is the units a coordinator holds because no member can
	// take them (Coordinator.Run keeps it current): they wait outside
	// any member's queue, so Load never reports them.
	backlog int64

	done    chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool
}

// NewPool validates cfg and builds a Pool (not yet running — Start it).
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("fleet: pool requires a Spawn function")
	}
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Max <= 0 {
		cfg.Max = 4
	}
	if cfg.Max < cfg.Min {
		return nil, fmt.Errorf("fleet: pool max (%d) below min (%d)", cfg.Max, cfg.Min)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.ScaleUpQueue <= 0 {
		cfg.ScaleUpQueue = 4
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Now == nil {
		cfg.Now = time.Now // the one sanctioned wall-clock source of the package
	}
	return &Pool{cfg: cfg, done: make(chan struct{})}, nil
}

// Start spawns the Min baseline workers synchronously — so a caller
// that needs an address immediately after Start has one — and launches
// the control loop. The loop runs until Stop or ctx cancellation.
func (p *Pool) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("fleet: pool already started")
	}
	p.started = true
	p.mu.Unlock()
	for i := 0; i < p.cfg.Min; i++ {
		if err := p.spawnOne(ctx); err != nil {
			p.Stop()
			return fmt.Errorf("fleet: spawn baseline worker %d: %w", i, err)
		}
	}
	p.wg.Add(1)
	go p.loop(ctx)
	return nil
}

// Stop retires every member (newest first) and stops the control loop.
// Safe to call more than once and after a ctx-cancelled loop exit.
func (p *Pool) Stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.done)
	}
	members := p.members
	p.members = nil
	p.stats.Size = 0
	p.mu.Unlock()
	p.wg.Wait()
	for i := len(members) - 1; i >= 0; i-- {
		members[i].Stop()
	}
}

// Addrs returns the current members' serving addresses, oldest first.
func (p *Pool) Addrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	addrs := make([]string, len(p.members))
	for i, m := range p.members {
		addrs[i] = m.Addr
	}
	return addrs
}

// Max returns the pool's configured upper bound.
func (p *Pool) Max() int { return p.cfg.Max }

// Stats snapshots the pool's size and lifetime scaling counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Min = p.cfg.Min
	st.Max = p.cfg.Max
	st.Addrs = make([]string, len(p.members))
	for i, m := range p.members {
		st.Addrs[i] = m.Addr
	}
	return st
}

// setBacklog records how many units a coordinator holds undispatched.
func (p *Pool) setBacklog(n int) {
	p.mu.Lock()
	p.backlog = int64(n)
	p.mu.Unlock()
}

// spawnOne starts one worker and registers it. Called from Start and
// the control loop only — never concurrently with itself.
func (p *Pool) spawnOne(ctx context.Context) error {
	h, err := p.cfg.Spawn(ctx)
	if err != nil {
		p.mu.Lock()
		p.stats.SpawnFailures++
		p.mu.Unlock()
		return err
	}
	p.mu.Lock()
	if p.stopped {
		// Lost the race with Stop: undo outside the lock.
		p.mu.Unlock()
		h.Stop()
		return fmt.Errorf("fleet: pool stopped during spawn")
	}
	p.members = append(p.members, h)
	p.stats.Size = len(p.members)
	p.mu.Unlock()
	return nil
}

// loop is the control loop: read the load, decide, scale.
func (p *Pool) loop(ctx context.Context) {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			p.tick(ctx)
		}
	}
}

// tick runs one control-loop iteration: it sums the backlog and the
// members' load and decides under the pool lock; spawning and stopping
// a worker run outside it.
func (p *Pool) tick(ctx context.Context) {
	p.mu.Lock()
	size := len(p.members)
	queued, inflight := p.backlog, int64(0)
	for _, m := range p.members {
		q, f := m.Load()
		queued += q
		inflight += f
	}
	busy := queued >= p.cfg.ScaleUpQueue
	idle := queued == 0 && inflight == 0
	switch {
	case busy:
		p.upStreak++
		p.idleStrk = 0
	case idle:
		p.idleStrk++
		p.upStreak = 0
	default:
		// In between: neither streak survives a mixed sample.
		p.upStreak, p.idleStrk = 0, 0
	}
	now := p.cfg.Now()
	coolingDown := !p.lastScale.IsZero() && now.Sub(p.lastScale) < p.cfg.Cooldown
	grow := p.upStreak >= upAfter && size < p.cfg.Max && !coolingDown
	var retire *WorkerHandle
	if !grow && p.idleStrk >= downAfter && size > p.cfg.Min && !coolingDown {
		// Retire the newest member: the baseline Min workers stay the
		// longest-lived (warmest caches), and LIFO makes repeated
		// grow/shrink cycles churn one slot, not the whole pool.
		retire = p.members[size-1]
		p.members = p.members[:size-1]
		p.stats.Size = len(p.members)
		p.stats.ScaleDowns++
		p.lastScale = now
		p.idleStrk = 0
	}
	if grow {
		p.upStreak = 0
		p.lastScale = now
	}
	sizeAfter := len(p.members)
	p.mu.Unlock()

	if retire != nil {
		fmt.Fprintf(p.cfg.Log, "fleet: pool scaling down to %d (idle %d ticks): retiring %s\n",
			sizeAfter, downAfter, retire.Addr)
		retire.Stop()
		return
	}
	if grow {
		fmt.Fprintf(p.cfg.Log, "fleet: pool scaling up (queued=%d over %d workers)\n", queued, size)
		if err := p.spawnOne(ctx); err != nil {
			fmt.Fprintf(p.cfg.Log, "fleet: pool spawn failed: %v\n", err)
		} else {
			p.mu.Lock()
			p.stats.ScaleUps++
			p.mu.Unlock()
		}
	}
}
