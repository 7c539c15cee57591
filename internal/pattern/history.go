package pattern

import "fmt"

// History is the sliding outcome window of one task's most recent k jobs,
// used to compute the flexibility degree (Definition 1) at each release.
//
// The window starts as all-effective: a freshly started task has no
// pending misses to amortize, which is exactly how the paper's examples
// behave (τ1=(5,4,3,2,4) starts with FD 2, τ2=(10,10,3,1,2) with FD 1 —
// footnote 1 and Figure 2).
type History struct {
	m, k int
	// ring holds the last k outcomes; ring[(head-1) mod k] is the most
	// recent. true = effective (successfully completed by its deadline).
	ring []bool
	head int
}

// NewHistory builds an all-effective history for constraint (m,k).
func NewHistory(m, k int) *History {
	if k < 1 || m < 1 || m > k {
		panic(fmt.Sprintf("pattern: invalid (m,k) = (%d,%d)", m, k))
	}
	h := &History{m: m, k: k, ring: make([]bool, k)}
	for i := range h.ring {
		h.ring[i] = true
	}
	return h
}

// M and K expose the constraint.
func (h *History) M() int { return h.m }
func (h *History) K() int { return h.k }

// Record appends one job outcome (true = effective).
func (h *History) Record(effective bool) {
	h.ring[h.head] = effective
	h.head++
	if h.head == h.k {
		h.head = 0
	}
}

// Meets returns the number of effective outcomes in the window.
func (h *History) Meets() int {
	c := 0
	for _, b := range h.ring {
		if b {
			c++
		}
	}
	return c
}

// Violated reports whether the current window already breaks (m,k).
func (h *History) Violated() bool { return h.Meets() < h.m }

// outcome returns the outcome at position pos, where pos = 1 is the most
// recent.
func (h *History) outcome(pos int) bool {
	idx := (h.head - pos + 2*h.k) % h.k
	return h.ring[idx]
}

// FlexibilityDegree implements Definition 1: the number of consecutive
// deadline misses the task can still tolerate starting from the *next*
// job. With l_m = position (1 = most recent) of the m-th most recent
// effective outcome, FD = k − l_m; if fewer than m effective outcomes
// remain in the window the task is already in violation and FD is 0 (the
// next job is unconditionally mandatory — the scheme's best effort).
//
// Derivation: after x consecutive future misses, the window of the last k
// outcomes retains the current effective outcomes shifted x positions
// older; the constraint survives iff the m-th most recent effective
// outcome is still inside the window, i.e. l_m + x <= k.
//
// The walk runs backwards through the ring from head and wraps with a
// compare: it runs at every dynamic-policy release, where a modulo per
// window position showed in profiles.
func (h *History) FlexibilityDegree() int {
	seen := 0
	idx := h.head
	for pos := 1; pos <= h.k; pos++ {
		if idx == 0 {
			idx = h.k
		}
		idx--
		if h.ring[idx] {
			seen++
			if seen == h.m {
				return h.k - pos
			}
		}
	}
	return 0
}

// Snapshot returns the window ordered oldest -> newest (for tests and
// trace output).
func (h *History) Snapshot() []bool {
	out := make([]bool, h.k)
	for pos := 1; pos <= h.k; pos++ {
		out[h.k-pos] = h.outcome(pos)
	}
	return out
}

// Clone returns an independent copy.
func (h *History) Clone() *History {
	c := &History{m: h.m, k: h.k, ring: make([]bool, h.k), head: h.head}
	copy(c.ring, h.ring)
	return c
}

// String renders the window oldest->newest as 1/0 digits plus the FD, e.g.
// "1101 (m=2,k=4, FD=1)".
func (h *History) String() string {
	s := make([]byte, h.k)
	for i, b := range h.Snapshot() {
		if b {
			s[i] = '1'
		} else {
			s[i] = '0'
		}
	}
	return fmt.Sprintf("%s (m=%d,k=%d, FD=%d)", s, h.m, h.k, h.FlexibilityDegree())
}
