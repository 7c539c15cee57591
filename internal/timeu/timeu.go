// Package timeu provides the fixed-point time arithmetic used throughout
// the simulator.
//
// The paper specifies task parameters in milliseconds but its worked
// examples use fractional values (e.g. a deadline of 2.5 ms in Figure 3),
// so floating point is tempting — and wrong: a discrete-event scheduler
// needs exact comparisons between release times, deadlines and completion
// instants. We therefore represent every instant and duration as an int64
// count of microseconds. One millisecond is Millisecond = 1000 ticks,
// which exactly represents every value the paper uses and leaves headroom
// of ~292,000 years before overflow.
package timeu

import (
	"fmt"
	"math"
)

// Time is an instant or duration in microsecond ticks.
type Time int64

// Common units, expressed in ticks.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// Infinity is a sentinel "never" instant. It is far enough in the future
// that no simulation horizon reaches it, yet small enough that adding a
// bounded duration to it does not overflow.
const Infinity Time = math.MaxInt64 / 4

// FromMillis converts a (possibly fractional) millisecond quantity to
// ticks, rounding to the nearest microsecond.
func FromMillis(ms float64) Time {
	return Time(math.Round(ms * float64(Millisecond)))
}

// Millis converts t to floating-point milliseconds (for reporting only;
// never use the result in scheduling decisions).
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time as a millisecond quantity, trimming trailing
// zeros, e.g. "2.5ms".
func (t Time) String() string {
	if t == Infinity {
		return "inf"
	}
	whole := t / Millisecond
	frac := t % Millisecond
	if frac < 0 {
		frac = -frac
	}
	if frac == 0 {
		return fmt.Sprintf("%dms", whole)
	}
	s := fmt.Sprintf("%d.%03d", whole, frac)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	return s + "ms"
}

// FloatTol is the default tolerance of the floating-point comparison
// helpers: fine enough to distinguish any two distinct paper quantities
// (which are multiples of 1 µs = 1e-3 ms), coarse enough to absorb the
// rounding error of the reporting-side float arithmetic.
const FloatTol = 1e-9

// ApproxEq reports whether two float64 quantities are equal within
// FloatTol, scaled by magnitude for large values. It is the sanctioned
// float comparison: the floateq lint rule flags raw == / != on floats
// everywhere outside this package.
func ApproxEq(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= FloatTol*scale
}

// ApproxZero reports whether x is zero within FloatTol — the tolerance-
// safe form of the "field missing or zero" sentinel checks on float
// inputs.
func ApproxZero(x float64) bool { return math.Abs(x) <= FloatTol }

// GCD returns the greatest common divisor of a and b. GCD(0, x) = x.
func GCD(a, b Time) Time {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, saturating at cap.
// The level-i hyperperiods of Eq. (5) multiply k·P terms whose LCM can
// explode combinatorially; callers pass a cap (typically the simulation
// horizon) and treat a saturated result as "longer than I care about".
func LCM(a, b, cap Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	g := GCD(a, b)
	q := a / g
	// Saturate instead of overflowing: q * b > cap  <=>  q > cap/b.
	if q > cap/b {
		return cap
	}
	l := q * b
	if l > cap {
		return cap
	}
	return l
}

// LCMAll folds LCM over a slice, saturating at cap. An empty slice yields 0.
func LCMAll(vs []Time, cap Time) Time {
	var l Time
	for i, v := range vs {
		if i == 0 {
			l = v
			if l > cap {
				return cap
			}
			continue
		}
		l = LCM(l, v, cap)
		if l == cap {
			return cap
		}
	}
	return l
}

// CeilDiv returns ⌈a / b⌉ for positive b, the workhorse of response-time
// analysis interference terms, and 0 for a negative a (no window, no
// interference). It never overflows: a + b − 1 would wrap once a and b
// together pass the largest Time.
func CeilDiv(a, b Time) Time {
	if b <= 0 {
		panic("timeu: CeilDiv by non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}
