package timeu

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestFromMillis(t *testing.T) {
	cases := []struct {
		ms   float64
		want Time
	}{
		{0, 0},
		{1, 1000},
		{2.5, 2500},
		{0.001, 1},
		{50, 50000},
		{0.0004, 0}, // rounds down
		{0.0006, 1}, // rounds up
	}
	for _, c := range cases {
		if got := FromMillis(c.ms); got != c.want {
			t.Errorf("FromMillis(%v) = %d, want %d", c.ms, got, c.want)
		}
	}
}

func TestMillisRoundTrip(t *testing.T) {
	for _, ms := range []float64{0, 1, 2.5, 49.999, 1000} {
		if got := FromMillis(ms).Millis(); math.Abs(got-ms) > 1e-9 {
			t.Errorf("round trip %v -> %v", ms, got)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ms"},
		{2500, "2.5ms"},
		{1000, "1ms"},
		{1234, "1.234ms"},
		{50000, "50ms"},
		{Infinity, "inf"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{12, 8, 4},
		{8, 12, 4},
		{0, 7, 7},
		{7, 0, 7},
		{-12, 8, 4},
		{1, 1, 1},
		{30, 30, 30},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	const cap = 1 << 40
	cases := []struct{ a, b, want Time }{
		{4, 6, 12},
		{30, 30, 30},
		{5, 7, 35},
		{0, 5, 0},
	}
	for _, c := range cases {
		if got := LCM(c.a, c.b, cap); got != c.want {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCMSaturates(t *testing.T) {
	// Two large coprime values whose product overflows the cap.
	a, b := Time(1e9+7), Time(1e9+9)
	if got := LCM(a, b, 1<<40); got != 1<<40 {
		t.Errorf("expected saturation at cap, got %d", got)
	}
	// Saturation must not overflow even near MaxInt64.
	if got := LCM(math.MaxInt64/2, math.MaxInt64/3, math.MaxInt64/4); got != math.MaxInt64/4 {
		t.Errorf("expected saturation at cap, got %d", got)
	}
}

func TestLCMAll(t *testing.T) {
	const cap = 1 << 40
	if got := LCMAll([]Time{4, 6, 10}, cap); got != 60 {
		t.Errorf("LCMAll = %d, want 60", got)
	}
	if got := LCMAll(nil, cap); got != 0 {
		t.Errorf("LCMAll(nil) = %d, want 0", got)
	}
	if got := LCMAll([]Time{2 * cap}, cap); got != cap {
		t.Errorf("LCMAll over cap = %d, want cap", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 5, 0},
		{-3, 5, 0},
		{1, 5, 1},
		{5, 5, 1},
		{6, 5, 2},
		{10, 5, 2},
		{11, 5, 3},
		// a + b − 1 would wrap: 4.7e18 + 4.8e18 passes the largest Time.
		{4_700_000_000_000_000_000, 4_800_000_000_000_000_000, 1},
		{math.MaxInt64, math.MaxInt64, 1},
		{math.MaxInt64, 2, math.MaxInt64/2 + 1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestGCDProperties(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Time(a), Time(b)
		g := GCD(x, y)
		if x == 0 && y == 0 {
			return g == 0
		}
		if g <= 0 {
			return false
		}
		ax, ay := x, y
		if ax < 0 {
			ax = -ax
		}
		if ay < 0 {
			ay = -ay
		}
		return ax%g == 0 && ay%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCMProperties(t *testing.T) {
	const cap = Time(1 << 50)
	f := func(a, b uint16) bool {
		x, y := Time(a)+1, Time(b)+1
		l := LCM(x, y, cap)
		return l%x == 0 && l%y == 0 && l >= max(x, y) && l <= x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a uint16, b uint16) bool {
		x, y := Time(a), Time(b)+1
		q := CeilDiv(x, y)
		return q*y >= x && (q-1)*y < x || (x == 0 && q == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1, true},
		{0.1 + 0.2, 0.3, true},         // the canonical rounding case
		{1e9 + 0.5, 1e9 + 0.5, true},   // relative tolerance at large scale
		{1e9, 1e9 * (1 + 1e-12), true}, // within relative tolerance
		{1, 1 + 1e-6, false},           // outside tolerance
		{0, 1e-8, false},               // absolute tolerance near zero
		{0, FloatTol / 2, true},
		{-1, 1, false},
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b); got != c.want {
			t.Errorf("ApproxEq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestApproxZero(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want bool
	}{
		{0, true}, {FloatTol / 2, true}, {-FloatTol / 2, true},
		{1e-8, false}, {-1e-8, false}, {1, false},
	} {
		if got := ApproxZero(c.x); got != c.want {
			t.Errorf("ApproxZero(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// FuzzLCMMatchesBig checks the saturating arithmetic against math/big on
// one decoded case (missing bytes read as zero). Bytes 0–7 give the cap
// and byte 8 the count n in [1, 8]; each value then reads 8 bytes. Cap
// and values are 1 + raw mod MaxInt64, so positive and never above
// MaxInt64. LCM of the first two values and LCMAll of all n must equal
// their exact least common multiple, capped at the cap. CeilDiv of the
// first value's raw bytes, read as a signed a, by the second value must
// equal ⌈a/b⌉ for a ≥ 0 and 0 for a < 0.
func FuzzLCMMatchesBig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) uint64 {
			var b [8]byte
			copy(b[:n], data)
			data = data[min(n, len(data)):]
			return binary.LittleEndian.Uint64(b[:])
		}
		pos := func(raw uint64) Time { return 1 + Time(raw%math.MaxInt64) }
		limit := pos(next(8))
		raws := make([]uint64, 1+next(1)%8)
		vs := make([]Time, len(raws))
		for i := range raws {
			raws[i] = next(8)
			vs[i] = pos(raws[i])
		}
		a, b := vs[0], vs[1%len(vs)]
		if got, want := LCM(a, b, limit), bigLCM([]Time{a, b}, limit); got != want {
			t.Fatalf("LCM(%d, %d, %d) = %d, math/big %d", a, b, limit, got, want)
		}
		if got, want := LCMAll(vs, limit), bigLCM(vs, limit); got != want {
			t.Fatalf("LCMAll(%d, %d) = %d, math/big %d", vs, limit, got, want)
		}
		num := Time(raws[0])
		want := Time(0)
		if num > 0 {
			q := new(big.Int).Add(big.NewInt(int64(num)), big.NewInt(int64(b)-1))
			want = Time(q.Quo(q, big.NewInt(int64(b))).Int64())
		}
		if got := CeilDiv(num, b); got != want {
			t.Fatalf("CeilDiv(%d, %d) = %d, math/big %d", num, b, got, want)
		}
	})
}

// bigLCM is the least common multiple of positive vs, computed exactly
// and then capped at limit.
func bigLCM(vs []Time, limit Time) Time {
	l := big.NewInt(int64(vs[0]))
	for _, v := range vs[1:] {
		bv := big.NewInt(int64(v))
		g := new(big.Int).GCD(nil, nil, l, bv)
		l.Mul(l.Quo(l, g), bv)
	}
	if l.Cmp(big.NewInt(int64(limit))) >= 0 {
		return limit
	}
	return Time(l.Int64())
}
