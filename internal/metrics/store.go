package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// StoreCounters tracks the persistent result store's traffic: lookups
// that found a record (hits), lookups that did not (misses), records
// appended (writes), and corrupt segment tails dropped during recovery
// (corrupt-recovered). The counters are atomics so the store can bump
// them from concurrent readers without taking its write lock, and the
// serving layer snapshots them for /healthz and the JSONL event stream.
type StoreCounters struct {
	hits    atomic.Uint64
	misses  atomic.Uint64
	writes  atomic.Uint64
	corrupt atomic.Uint64
}

// Hit records one successful lookup.
func (c *StoreCounters) Hit() { c.hits.Add(1) }

// Miss records one lookup that found nothing.
func (c *StoreCounters) Miss() { c.misses.Add(1) }

// Write records one appended record.
func (c *StoreCounters) Write() { c.writes.Add(1) }

// CorruptRecovered records n corrupt-tail recoveries (records or
// truncation events dropped while reopening a damaged segment).
func (c *StoreCounters) CorruptRecovered(n uint64) { c.corrupt.Add(n) }

// Snapshot returns a consistent-enough copy for reporting (each field is
// read atomically; the set is not a transaction, which reporting does
// not need).
func (c *StoreCounters) Snapshot() StoreSnapshot {
	return StoreSnapshot{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Writes:           c.writes.Load(),
		CorruptRecovered: c.corrupt.Load(),
	}
}

// StoreSnapshot is a point-in-time copy of StoreCounters, shaped for
// JSON reporting (BENCH documents, /healthz, the event stream).
type StoreSnapshot struct {
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Writes           uint64 `json:"writes"`
	CorruptRecovered uint64 `json:"corrupt_recovered"`
}

// maxTenants bounds the keys a TenantCounter keeps apart: a key first
// seen when that many are counted is counted under otherTenants.
const maxTenants = 1024

// otherTenants is the key that counts every tenant past the first
// maxTenants. No tenant is named "": serve.Tenant maps an absent header
// to the default tenant.
const otherTenants = ""

// TenantCounter is a concurrency-safe string-keyed counter — the serving
// layer's per-tenant quota-rejection accounting. Keys are created on
// first use, at most maxTenants of them plus otherTenants.
type TenantCounter struct {
	mu sync.Mutex
	m  map[string]uint64
}

// Add increments key's count by one.
func (t *TenantCounter) Add(key string) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]uint64)
	}
	if _, ok := t.m[key]; !ok && len(t.m) >= maxTenants {
		key = otherTenants
	}
	t.m[key]++
	t.mu.Unlock()
}

// Snapshot returns a copy of the counts; nil when nothing was counted.
func (t *TenantCounter) Snapshot() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

// Keys returns the counted keys in sorted order (deterministic output
// for logs and tests).
func (t *TenantCounter) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
