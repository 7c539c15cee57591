package serve

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Per-tenant quotas: every tenant gets its own token bucket (uniform
// rate/burst), created on first sight, so one hot client exhausts its
// own bucket while everyone else's stays full. The tenant is whatever
// the TenantHeader carries, at most maxTenantLen bytes; requests without
// the header share the default tenant's bucket. This sits beneath the
// global rate limit (when one is configured): the global bucket protects
// the host, the tenant buckets protect the tenants from each other.
//
// Tenant names come from clients, so what a flood of distinct names can
// pin is bounded: a bucket that has refilled to its burst behaves exactly
// like a new one and is dropped, and rejections are counted for at most
// 1,024 tenants (metrics.TenantCounter).

// TenantHeader names the request header carrying the tenant identity.
const TenantHeader = "X-MK-Tenant"

// DefaultTenant is the tenant of requests without a TenantHeader.
const DefaultTenant = "default"

// maxTenantLen bounds a TenantHeader value under quotas; a longer one is
// refused with a 400 before any bucket is made for it.
const maxTenantLen = 128

// Tenant extracts the request's tenant identity.
func Tenant(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// tenantLimiter lazily maintains one token bucket per tenant.
type tenantLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   int
	now     func() time.Time
	buckets map[string]*tokenBucket
	// sweepAt is the bucket count at which the next new tenant first
	// sweeps out the full buckets.
	sweepAt int
	// rejected counts quota rejections per tenant, surfaced in /healthz
	// and /metrics.
	rejected *metrics.TenantCounter
}

func newTenantLimiter(rate float64, burst int, now func() time.Time, rejected *metrics.TenantCounter) *tenantLimiter {
	return &tenantLimiter{
		rate:     rate,
		burst:    burst,
		now:      now,
		buckets:  map[string]*tokenBucket{},
		rejected: rejected,
	}
}

// take consumes one token from tenant's bucket; on exhaustion it reports
// the bucket's refill time (the Retry-After hint) and counts the
// rejection against the tenant. The bucket is taken from under l.mu, so
// a sweep never drops a bucket between its lookup and its take.
func (l *tenantLimiter) take(tenant string) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.sweepAt {
			l.sweep()
		}
		b = newTokenBucket(l.rate, l.burst, l.now)
		l.buckets[tenant] = b
	}
	ok, retryAfter = b.take()
	l.mu.Unlock()
	if !ok {
		l.rejected.Add(tenant)
	}
	return ok, retryAfter
}

// sweep drops every bucket that has refilled to its burst. The next
// sweep waits until the map has doubled, so a sweep's cost is spread
// over at least as many new tenants as it leaves buckets behind. l.mu
// must be held.
func (l *tenantLimiter) sweep() {
	t := l.now()
	for tenant, b := range l.buckets {
		if b.full(t) {
			delete(l.buckets, tenant)
		}
	}
	l.sweepAt = 2 * len(l.buckets)
}
