package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/wire"
)

// admitError is a rejection by the admission layer, carrying the HTTP
// status, the machine-readable error code, and the Retry-After hint the
// handler should surface.
type admitError struct {
	status     int
	retryAfter time.Duration
	code       string
	msg        string
}

func (e *admitError) Error() string { return e.msg }

// tokenBucket is a classic continuous-refill token bucket over an
// injectable clock: rate tokens per second, capacity burst.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	if burst <= 0 {
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   now(),
		now:    now,
	}
}

// take consumes one token if available; otherwise it reports how long
// until the next token accrues (the Retry-After hint).
func (b *tokenBucket) take() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens += b.rate * t.Sub(b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // Retry-After has whole-second resolution
	}
	return false, wait
}

// admission is the bounded execution stage: at most slots simulation
// jobs run at once, at most queueDepth more wait for a slot, and
// everything beyond that is rejected immediately with backpressure.
type admission struct {
	sem        chan struct{}
	queueDepth int
	queued     *atomic.Int64
}

func newAdmission(slots, queueDepth int, queued *atomic.Int64) *admission {
	return &admission{
		sem:        make(chan struct{}, slots),
		queueDepth: queueDepth,
		queued:     queued,
	}
}

// acquire claims an execution slot, waiting in the bounded queue when
// all slots are busy. It returns the release function on success; an
// *admitError (queue full) or the context's error otherwise.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.sem <- struct{}{}:
		return func() { <-a.sem }, nil
	default:
	}
	if n := a.queued.Add(1); n > int64(a.queueDepth) {
		a.queued.Add(-1)
		return nil, &admitError{
			status:     429,
			retryAfter: time.Second,
			code:       wire.CodeQueueFull,
			msg:        fmt.Sprintf("job queue full (%d waiting on %d slots)", a.queueDepth, cap(a.sem)),
		}
	}
	defer a.queued.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return func() { <-a.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
