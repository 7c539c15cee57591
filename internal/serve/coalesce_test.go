package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupSingleExecution coalesces N concurrent identical
// requests into exactly one execution of the leader, with every caller
// receiving the shared document and all but the leader reporting
// started=false.
func TestFlightGroupSingleExecution(t *testing.T) {
	c := newCoalescer()
	const n = 16
	var calls atomic.Int64
	arrived := make(chan struct{}, n)
	proceed := make(chan struct{})
	run := func(context.Context, func([]byte)) ([]byte, error) {
		calls.Add(1)
		arrived <- struct{}{}
		<-proceed // hold the flight open until every caller joined
		return []byte("result"), nil
	}
	var wg sync.WaitGroup
	vals := make([][]byte, n)
	shareds := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, started := c.attach("k", run)
			err := f.stream(context.Background(), func(doc []byte) error {
				vals[i] = append(vals[i], doc...)
				return nil
			})
			if err != nil {
				t.Errorf("stream: %v", err)
			}
			shareds[i] = !started
		}(i)
	}
	<-arrived // the leader is running; followers can only join now
	// Wait for the follower goroutines to have attached; by
	// serialization on c.mu none can start a second flight before this
	// one completes.
	for deadline := 0; ; deadline++ {
		c.mu.Lock()
		f := c.open["k"]
		c.mu.Unlock()
		f.mu.Lock()
		subs := f.subs
		f.mu.Unlock()
		if subs == n {
			break
		}
		if deadline > 1000 {
			t.Fatalf("followers never joined: %d/%d subscribers", subs, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("leader executed %d times, want 1", got)
	}
	sharedCount := 0
	for i := range vals {
		if string(vals[i]) != "result" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("shared count = %d, want %d", sharedCount, n-1)
	}
}

// TestFlightGroupLastWaiterCancelsLeader verifies that abandoning every
// subscriber of a one-document flight cancels the leader's detached
// context (the shard is freed as soon as nobody wants the result).
func TestFlightGroupLastWaiterCancelsLeader(t *testing.T) {
	c := newCoalescer()
	leaderDone := make(chan error, 1)
	started := make(chan struct{})
	f, _ := c.attach("k", func(lctx context.Context, _ func([]byte)) ([]byte, error) {
		close(started)
		<-lctx.Done() // simulate work that honors cancellation
		leaderDone <- lctx.Err()
		return nil, lctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	<-started
	cancel() // the only caller gives up
	if err := f.stream(ctx, func([]byte) error { return nil }); err == nil {
		t.Fatal("expected a context error after abandoning the flight")
	}
	select {
	case err := <-leaderDone:
		if err == nil {
			t.Fatal("leader context ended without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader context was never canceled")
	}
}

// TestFlightGroupSequentialNotShared checks that non-overlapping
// requests each execute the leader (coalescing is in-flight only, not a
// cache).
func TestFlightGroupSequentialNotShared(t *testing.T) {
	c := newCoalescer()
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		f, started := c.attach("k", func(context.Context, func([]byte)) ([]byte, error) {
			calls.Add(1)
			return []byte("x"), nil
		})
		err := f.stream(context.Background(), func([]byte) error { return nil })
		if err != nil || !started {
			t.Fatalf("call %d: started=%v err=%v", i, started, err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("leader executed %d times, want 3", calls.Load())
	}
}

// TestSweepJobReplayAndFollow streams rows to a subscriber that attaches
// mid-flight: it must replay the published prefix and then follow live,
// seeing the identical full sequence.
func TestSweepJobReplayAndFollow(t *testing.T) {
	c := newCoalescer()
	gate := make(chan struct{})
	j, started := c.attach("k", func(ctx context.Context, publish func([]byte)) ([]byte, error) {
		publish([]byte("row0"))
		publish([]byte("row1"))
		<-gate
		return []byte("row2"), nil
	})
	if !started {
		t.Fatal("first attach should start the job")
	}
	// Wait until the first two rows are in.
	for {
		j.mu.Lock()
		n := len(j.docs)
		j.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	j2, started2 := c.attach("k", nil)
	if started2 || j2 != j {
		t.Fatal("second attach should coalesce onto the open job")
	}
	close(gate)
	var got []string
	err := j2.stream(context.Background(), func(row []byte) error {
		got = append(got, string(row))
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	want := []string{"row0", "row1", "row2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestSweepJobLastSubscriberCancelsLeader verifies that the leader's
// context dies when its only subscriber disconnects mid-stream.
func TestSweepJobLastSubscriberCancelsLeader(t *testing.T) {
	c := newCoalescer()
	canceled := make(chan struct{})
	j, _ := c.attach("k", func(ctx context.Context, publish func([]byte)) ([]byte, error) {
		publish([]byte("row0"))
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel the subscriber after it consumed the first row.
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := j.stream(ctx, func([]byte) error { return nil }); err == nil {
		t.Fatal("stream should return the subscriber's context error")
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("leader was never canceled after the last subscriber left")
	}
}
