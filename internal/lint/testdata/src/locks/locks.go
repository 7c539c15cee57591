// Package locks exercises the mutex-discipline rule: dominated unlocks,
// no held locks across returns or blocking calls.
package locks

import (
	"sync"
	"time"
)

// Box carries a mutex.
type Box struct {
	mu sync.Mutex
	n  int
}

func unlockOnly(b *Box) {
	b.mu.Unlock() // want locks "without a dominating Lock"
}

func conditionalLock(b *Box, cond bool) {
	if cond {
		b.mu.Lock()
	}
	b.mu.Unlock() // want locks "without a dominating Lock"
}

func earlyReturnLeak(b *Box, cond bool) int {
	b.mu.Lock()
	if cond {
		return 0 // want locks "leaks the lock"
	}
	b.mu.Unlock()
	return b.n
}

func deferredIsClean(b *Box, cond bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cond {
		return 0
	}
	return b.n
}

// branchUnlockReturn is the coalescing idiom: unlock inside the branch,
// then return — the must-hold merge keeps it clean.
func branchUnlockReturn(b *Box, hit bool) int {
	b.mu.Lock()
	if hit {
		b.mu.Unlock()
		return 1
	}
	b.n = 2
	b.mu.Unlock()
	return 0
}

func sendWhileHeld(b *Box, ch chan int) {
	b.mu.Lock()
	ch <- b.n // want locks "channel send"
	b.mu.Unlock()
}

func transitiveBlock(b *Box) {
	b.mu.Lock()
	slowHelper() // want locks "time.Sleep via"
	b.mu.Unlock()
}

func slowHelper() {
	time.Sleep(10 * time.Millisecond)
}

func pollIsFine(b *Box, ch chan int) {
	b.mu.Lock()
	select {
	case v := <-ch:
		b.n = v
	default:
	}
	b.mu.Unlock()
}
