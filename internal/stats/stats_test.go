package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical streams")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	s1 := DeriveSeed(7, 0)
	s2 := DeriveSeed(7, 1)
	if s1 == s2 {
		t.Error("derived seeds collide")
	}
	if DeriveSeed(7, 0) != s1 {
		t.Error("DeriveSeed not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(2)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestInt64n(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		v := r.Int64n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(6)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("split streams collide on first draw")
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample must be all zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Error("N wrong")
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known dataset: population stddev 2, sample variance 32/7.
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", got, 32.0/7)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if s.SE() <= 0 || s.CI95() <= 0 {
		t.Error("SE/CI must be positive for non-degenerate sample")
	}
}

// Property: mean lies within [min, max]; variance is non-negative.
func TestSampleProperties(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			// Keep magnitudes sane to avoid float overflow in Var.
			if math.Abs(x) > 1e100 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-9 && m <= s.Max()+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
