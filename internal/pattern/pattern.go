// Package pattern implements the (m,k)-firm machinery: static
// mandatory/optional partitions (the deeply-red R-pattern of Eq. (1) and
// the evenly-distributed E-pattern used as an ablation), the per-task
// outcome history window, and the flexibility degree of Definition 1 that
// drives the paper's selective scheme.
package pattern

import "fmt"

// Kind selects a static partitioning pattern.
type Kind int

const (
	// RPattern is the deeply-red pattern of Koren & Shasha (Eq. (1)):
	// job j is mandatory iff 1 <= j mod k <= m.
	RPattern Kind = iota
	// EPattern is Ramanathan's evenly-distributed pattern:
	// job j is mandatory iff j == ceil(ceil((j-1)*m/k) * k/m) ... i.e. the
	// mandatory jobs are spread uniformly. Used for ablation benches.
	EPattern
)

func (k Kind) String() string {
	switch k {
	case RPattern:
		return "R-pattern"
	case EPattern:
		return "E-pattern"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Mandatory reports whether the j-th job (1-based, as in the paper) of a
// task with constraint (m,k) is mandatory under the pattern.
func Mandatory(kind Kind, j, m, k int) bool {
	if j < 1 {
		panic("pattern: job index must be >= 1")
	}
	if m >= k {
		return true
	}
	switch kind {
	case RPattern:
		// Eq. (1): pi_ij = 1 iff 1 <= j mod k <= m. Note j mod k == 0
		// (j a multiple of k) is optional because m < k.
		r := j % k
		return 1 <= r && r <= m
	case EPattern:
		// Job j (1-based) is mandatory iff
		// j-1 == ceil(floor((j-1)*m/k) * k/m)  (Ramanathan's spread rule).
		x := (j - 1) % k // pattern repeats every k jobs
		fl := x * m / k
		ce := (fl*k + m - 1) / m
		return x == ce
	default:
		panic("pattern: unknown kind")
	}
}

// FirstViolation returns the index (0-based) of the last job of the first
// violating k-window, or -1 if the sequence satisfies (m,k): every window
// of k consecutive outcomes (true = effective) holds at least m trues.
// The sequence is treated as preceded by an infinite all-effective
// history, so windows that begin before index 0 count their missing
// prefix as effective.
func FirstViolation(outcomes []bool, m, k int) int {
	meets := 0 // number of trues in the current window
	for i, ok := range outcomes {
		if ok {
			meets++
		}
		if i >= k {
			if outcomes[i-k] {
				meets--
			}
		}
		// Window covering positions (i-k+1 .. i); positions < 0 are
		// implicit effective history.
		implicit := k - 1 - i
		if implicit < 0 {
			implicit = 0
		}
		if meets+implicit < m {
			return i
		}
	}
	return -1
}
