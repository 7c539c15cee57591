// Package stats provides the deterministic random-number plumbing and the
// small descriptive-statistics helpers the evaluation harness needs.
// Every simulation in this repository is reproducible from a single
// uint64 seed: the harness derives independent sub-streams with SplitMix64
// so that, e.g., task-set generation and fault injection never share a
// stream (adding a fault scenario must not change which task sets are
// generated).
package stats

import (
	"math"
)

// SplitMix64 advances x and returns the next output of the SplitMix64
// generator (Steele, Lea, Flood; the standard seed-expansion PRNG). It is
// used both to derive sub-seeds and as the core of Rand.
func SplitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed produces the i-th independent sub-seed of a master seed.
func DeriveSeed(master uint64, i uint64) uint64 {
	x := master ^ (0x5851f42d4c957f2d * (i + 1))
	SplitMix64(&x)
	return SplitMix64(&x)
}

// Rand is a small deterministic PRNG (SplitMix64 stream). It deliberately
// does not expose global state; every component owns its Rand.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 { return SplitMix64(&r.state) }

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling is overkill here;
	// simple rejection keeps the distribution exact.
	bound := uint64(n)
	limit := (math.MaxUint64 / bound) * bound
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Int64n returns a uniform int64 in [0,n).
func (r *Rand) Int64n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int64n with non-positive n")
	}
	bound := uint64(n)
	limit := (math.MaxUint64 / bound) * bound
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % bound)
		}
	}
}

// Split derives an independent generator; the parent advances once.
func (r *Rand) Split() *Rand {
	return NewRand(DeriveSeed(r.Uint64(), 0x517cc1b727220a95))
}

// Sample holds observations and computes descriptive statistics.
type Sample struct{ xs []float64 }

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance (0 for n < 2).
func (s *Sample) Var() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// SE returns the standard error of the mean.
func (s *Sample) SE() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Stddev() / math.Sqrt(float64(len(s.xs)))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval on the mean.
func (s *Sample) CI95() float64 { return 1.96 * s.SE() }

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
