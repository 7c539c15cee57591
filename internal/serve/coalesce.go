package serve

import (
	"context"
	"sync"
)

// flight is one in-flight computation shared by every request that asked
// for the same key while it ran. Its output is a sequence of encoded
// documents: one for /v1/simulate and /v1/estimate?refine=true, and a
// start line, one row per interval and a done line for /v1/sweep. The
// leader runs on a detached context and publishes each document as it
// completes; every subscriber, the first one included, replays the
// published prefix and then follows live, so a coalesced client receives
// the bytes it would have received as the leader. The leader's context
// stays alive while at least one subscriber remains and is canceled by
// the last one to leave an unfinished flight — a herd that disconnects
// frees its execution slot immediately.
type flight struct {
	mu     sync.Mutex
	docs   [][]byte
	done   bool
	err    error
	subs   int
	wake   chan struct{} // closed and replaced on every state change
	cancel context.CancelFunc
}

// publish appends one encoded document and wakes the subscribers.
func (f *flight) publish(doc []byte) {
	f.mu.Lock()
	f.docs = append(f.docs, doc)
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// finish appends the leader's last document (when non-nil), marks the
// flight complete with err, and wakes the subscribers one last time. The
// last document and the completion land under one lock, so a subscriber
// that has written the last document never waits on its own context
// again and cannot append an error to a complete response.
func (f *flight) finish(last []byte, err error) {
	f.mu.Lock()
	if last != nil {
		f.docs = append(f.docs, last)
	}
	f.done = true
	f.err = err
	close(f.wake)
	f.mu.Unlock()
}

// stream emits every document to emit in order, blocking for new ones
// until the flight finishes, and returns the flight's error. It detaches
// on context cancellation or emit failure.
func (f *flight) stream(ctx context.Context, emit func([]byte) error) error {
	i := 0
	for {
		f.mu.Lock()
		pending := f.docs[i:]
		i = len(f.docs)
		done, err := f.done, f.err
		wake := f.wake
		f.mu.Unlock()
		for _, doc := range pending {
			if eerr := emit(doc); eerr != nil {
				f.detach()
				return eerr
			}
		}
		if done {
			return err
		}
		select {
		case <-wake:
		case <-ctx.Done():
			f.detach()
			return ctx.Err()
		}
	}
}

// detach drops one subscriber, canceling the leader when none remain
// and the flight has not finished.
func (f *flight) detach() {
	f.mu.Lock()
	f.subs--
	last := f.subs == 0 && !f.done
	f.mu.Unlock()
	if last {
		f.cancel()
	}
}

// coalescer is the server's one request coalescer: it tracks the open
// flights by key — store.RunKey for a run, store.SweepUnitKey over the
// request's own bounds for a sweep — so the in-process dedupe and the
// persistent store agree on what "the same request" means.
type coalescer struct {
	mu   sync.Mutex
	open map[string]*flight
}

func newCoalescer() *coalescer {
	return &coalescer{open: map[string]*flight{}}
}

// attach subscribes to the flight for key, starting a leader goroutine
// running run when none is open; started reports whether this caller
// created the flight (false = coalesced). run receives the leader
// context and the publish callback; its returned document (nil for none)
// is the flight's last, and its error the flight's terminal state.
func (c *coalescer) attach(key string, run func(ctx context.Context, publish func([]byte)) ([]byte, error)) (f *flight, started bool) {
	c.mu.Lock()
	if f, ok := c.open[key]; ok {
		f.mu.Lock()
		f.subs++
		f.mu.Unlock()
		c.mu.Unlock()
		return f, false
	}
	lctx, cancel := context.WithCancel(context.Background())
	f = &flight{subs: 1, wake: make(chan struct{}), cancel: cancel}
	c.open[key] = f
	c.mu.Unlock()
	go func() {
		last, err := run(lctx, f.publish)
		c.mu.Lock()
		delete(c.open, key)
		c.mu.Unlock()
		f.finish(last, err)
		cancel()
	}()
	return f, true
}
