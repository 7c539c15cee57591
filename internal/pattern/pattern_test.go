package pattern

import (
	"testing"
	"testing/quick"
)

// mandatorySlice returns the first n pattern bits (index 0 = job 1).
func mandatorySlice(kind Kind, n, m, k int) []bool {
	out := make([]bool, n)
	for j := 1; j <= n; j++ {
		out[j-1] = Mandatory(kind, j, m, k)
	}
	return out
}

// countTrue counts the true bits of seq.
func countTrue(seq []bool) int {
	c := 0
	for _, b := range seq {
		if b {
			c++
		}
	}
	return c
}

// satisfies reports whether seq meets (m,k), by FirstViolation.
func satisfies(seq []bool, m, k int) bool { return FirstViolation(seq, m, k) < 0 }

func TestRPatternEq1(t *testing.T) {
	// Eq. (1): pi_ij = 1 iff 1 <= j mod k <= m, for (m,k) = (2,4):
	// jobs 1,2 mandatory; 3,4 optional; repeats.
	want := []bool{true, true, false, false, true, true, false, false}
	got := mandatorySlice(RPattern, 8, 2, 4)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("R(2,4) job %d = %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestRPatternFig5(t *testing.T) {
	// tau1=(10,10,3,2,3): jobs 1,2 mandatory, 3 optional (paper Fig. 5:
	// backups at t=0 and t=10 only within [0,30)).
	got := mandatorySlice(RPattern, 3, 2, 3)
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("R(2,3) job %d = %v, want %v", i+1, got[i], want[i])
		}
	}
	// tau2=(15,15,8,1,2): job 1 mandatory, job 2 optional.
	if !Mandatory(RPattern, 1, 1, 2) || Mandatory(RPattern, 2, 1, 2) {
		t.Error("R(1,2) wrong")
	}
}

func TestRPatternCounts(t *testing.T) {
	// Over any k consecutive jobs, the R-pattern marks exactly m mandatory.
	for _, mk := range [][2]int{{1, 2}, {2, 3}, {2, 4}, {3, 7}, {19, 20}} {
		m, k := mk[0], mk[1]
		if got := countTrue(mandatorySlice(RPattern, k, m, k)); got != m {
			t.Errorf("R(%d,%d): %d mandatory in one window, want %d", m, k, got, m)
		}
	}
}

func TestMHardEqualsAllMandatory(t *testing.T) {
	for j := 1; j <= 10; j++ {
		if !Mandatory(RPattern, j, 3, 3) || !Mandatory(EPattern, j, 3, 3) {
			t.Errorf("m==k job %d must be mandatory", j)
		}
	}
}

func TestEPatternSpread(t *testing.T) {
	// E(2,4) should mark jobs 1 and 3 (spread), not 1 and 2 (deeply red).
	got := mandatorySlice(EPattern, 8, 2, 4)
	want := []bool{true, false, true, false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("E(2,4) job %d = %v, want %v", i+1, got[i], want[i])
		}
	}
	// Each window of k jobs still contains exactly m mandatory ones.
	for _, mk := range [][2]int{{1, 2}, {2, 3}, {2, 4}, {3, 7}, {5, 9}} {
		m, k := mk[0], mk[1]
		if got := countTrue(mandatorySlice(EPattern, k, m, k)); got != m {
			t.Errorf("E(%d,%d): %d mandatory per window, want %d", m, k, got, m)
		}
	}
}

func TestPatternSatisfiesMK(t *testing.T) {
	// Executing exactly the pattern's mandatory jobs satisfies (m,k).
	for _, kind := range []Kind{RPattern, EPattern} {
		for m := 1; m < 6; m++ {
			for k := m + 1; k <= 8; k++ {
				seq := mandatorySlice(kind, 5*k, m, k)
				if !satisfies(seq, m, k) {
					t.Errorf("%v(%d,%d) does not satisfy its own constraint", kind, m, k)
				}
			}
		}
	}
}

func TestMandatoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for job index 0")
		}
	}()
	Mandatory(RPattern, 0, 1, 2)
}

func TestKindString(t *testing.T) {
	if RPattern.String() != "R-pattern" || EPattern.String() != "E-pattern" {
		t.Error("Kind strings")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind must render")
	}
}

func TestFirstViolation(t *testing.T) {
	cases := []struct {
		seq  []bool
		m, k int
		want int
	}{
		{[]bool{true, true, false, false}, 2, 4, -1},
		{[]bool{false, false}, 2, 4, -1},       // implicit effective prefix
		{[]bool{false, false, false}, 2, 4, 2}, // third miss kills (2,4)
		{[]bool{true, false, true, false}, 1, 2, -1},
		{[]bool{false, false}, 1, 2, 1},
		{[]bool{}, 1, 2, -1},
	}
	for i, c := range cases {
		if got := FirstViolation(c.seq, c.m, c.k); got != c.want {
			t.Errorf("case %d: FirstViolation = %d, want %d", i, got, c.want)
		}
	}
}

func TestSatisfiesMatchesNaive(t *testing.T) {
	naive := func(seq []bool, m, k int) bool {
		for end := 0; end < len(seq); end++ {
			meets := 0
			for p := end - k + 1; p <= end; p++ {
				if p < 0 || seq[p] {
					meets++
				}
			}
			if meets < m {
				return false
			}
		}
		return true
	}
	f := func(bits []bool, mr, kr uint8) bool {
		k := int(kr%8) + 1
		m := int(mr)%k + 1
		return satisfies(bits, m, k) == naive(bits, m, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
