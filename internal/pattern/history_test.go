package pattern

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// nextMandatory reports whether h's next job must be mandatory (FD == 0).
func nextMandatory(h *History) bool { return h.FlexibilityDegree() == 0 }

func TestInitialFDMatchesPaper(t *testing.T) {
	// Footnote 1 / Fig. 2 of the paper: with fresh (all-effective)
	// history, tau1 with (2,4) can tolerate two more misses, tau2 with
	// (1,2) can tolerate one.
	if fd := NewHistory(2, 4).FlexibilityDegree(); fd != 2 {
		t.Errorf("FD(2,4 fresh) = %d, want 2", fd)
	}
	if fd := NewHistory(1, 2).FlexibilityDegree(); fd != 1 {
		t.Errorf("FD(1,2 fresh) = %d, want 1", fd)
	}
}

func TestFDHardTask(t *testing.T) {
	// m == k leaves no slack ever.
	h := NewHistory(3, 3)
	if fd := h.FlexibilityDegree(); fd != 0 {
		t.Errorf("FD(3,3) = %d, want 0", fd)
	}
	if !nextMandatory(h) {
		t.Error("hard task's next job must be mandatory")
	}
}

func TestFDAfterMisses(t *testing.T) {
	h := NewHistory(2, 4) // fresh: 1111, FD=2
	h.Record(false)       // 1110
	if fd := h.FlexibilityDegree(); fd != 1 {
		t.Errorf("after 1 miss FD = %d, want 1", fd)
	}
	h.Record(false) // 1100
	if fd := h.FlexibilityDegree(); fd != 0 {
		t.Errorf("after 2 misses FD = %d, want 0", fd)
	}
	h.Record(true) // 1001
	if fd := h.FlexibilityDegree(); fd != 0 {
		t.Errorf("1001 FD = %d, want 0 (second meet is 4 back)", fd)
	}
	h.Record(true) // 0011
	if fd := h.FlexibilityDegree(); fd != 2 {
		t.Errorf("0011 FD = %d, want 2", fd)
	}
}

func TestFDSteadyStateSkipExecute(t *testing.T) {
	// The selective policy for (1,2): skip (FD 1), execute, skip, ... —
	// FD must alternate 1,0? No: executing only FD==1 jobs means we skip
	// when FD>=2 — for (1,2) FD is never 2; at FD==1 the job is eligible
	// and executed, keeping FD at 1 forever.
	h := NewHistory(1, 2)
	for i := 0; i < 10; i++ {
		if fd := h.FlexibilityDegree(); fd != 1 {
			t.Fatalf("step %d: FD = %d, want 1", i, fd)
		}
		h.Record(true) // eligible job executed successfully
	}
}

func TestFDSelectivePatternFor24(t *testing.T) {
	// (2,4) under the paper's policy: fresh FD=2 -> skip; then FD=1 ->
	// execute; if successful the next FD is 1 again (window 1101 ->
	// l_2 = 3), execute; then FD=2 -> skip. Pattern: skip,exec,exec,skip...
	h := NewHistory(2, 4)
	var got []int
	for i := 0; i < 8; i++ {
		fd := h.FlexibilityDegree()
		got = append(got, fd)
		if fd >= 2 {
			h.Record(false) // skipped
		} else {
			h.Record(true) // executed successfully (FD==1 or mandatory)
		}
	}
	want := []int{2, 1, 1, 2, 1, 1, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FD sequence %v, want %v", got, want)
		}
	}
}

func TestViolatedAndMeets(t *testing.T) {
	h := NewHistory(2, 3)
	if h.Violated() || h.Meets() != 3 {
		t.Error("fresh history wrong")
	}
	h.Record(false)
	h.Record(false)
	if !h.Violated() {
		t.Error("2 misses in (2,3) window must violate")
	}
	if h.Meets() != 1 {
		t.Errorf("Meets = %d, want 1", h.Meets())
	}
	if h.FlexibilityDegree() != 0 {
		t.Error("violated history must force mandatory")
	}
}

func TestSnapshotAndString(t *testing.T) {
	h := NewHistory(2, 4)
	h.Record(false)
	h.Record(true)
	snap := h.Snapshot()
	want := []bool{true, true, false, true} // oldest -> newest
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", snap, want)
		}
	}
	if s := h.String(); !strings.HasPrefix(s, "1101") {
		t.Errorf("String = %q", s)
	}
}

// TestCloneIndependent checks Clone and CloneAll: a copy starts equal to
// its original, and recording into either leaves the other as it was.
func TestCloneIndependent(t *testing.T) {
	clones := map[string]func(h, other *History) *History{
		"Clone":    func(h, _ *History) *History { return h.Clone() },
		"CloneAll": func(h, other *History) *History { return CloneAll([]*History{other, h, other})[1] },
	}
	for name, clone := range clones {
		h, other := NewHistory(1, 3), NewHistory(2, 5)
		h.Record(false)
		c := clone(h, other)
		c.Record(false)
		h.Record(true)
		if got := fmt.Sprint(h.Snapshot()); got != "[true false true]" {
			t.Errorf("%s: the copy's record reached the original: %s", name, got)
		}
		if got := fmt.Sprint(c.Snapshot()); got != "[true false false]" {
			t.Errorf("%s: the copy did not start from the original or took its later record: %s", name, got)
		}
		if c.FlexibilityDegree() != 0 || c.K() != 3 {
			t.Errorf("%s: the copy has FD %d and k %d, want 0 and 3", name, c.FlexibilityDegree(), c.K())
		}
	}
}

func TestNewHistoryPanics(t *testing.T) {
	for _, mk := range [][2]int{{0, 2}, {3, 2}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistory(%d,%d) must panic", mk[0], mk[1])
				}
			}()
			NewHistory(mk[0], mk[1])
		}()
	}
}

// Property: obeying the FD rule — execute whenever FD == 0, free choice
// otherwise — never violates the (m,k) constraint.
func TestFDPolicyNeverViolates(t *testing.T) {
	f := func(choices []bool, mr, kr uint8) bool {
		k := int(kr%8) + 2
		m := int(mr)%(k-1) + 1
		h := NewHistory(m, k)
		var outcomes []bool
		for _, c := range choices {
			exec := nextMandatory(h) || c
			h.Record(exec)
			outcomes = append(outcomes, exec)
			if h.Violated() {
				return false
			}
		}
		return satisfies(outcomes, m, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: FD equals the largest x such that recording x misses does not
// violate the constraint (brute-force cross-check of Definition 1).
func TestFDMatchesBruteForce(t *testing.T) {
	f := func(seed []bool, mr, kr uint8) bool {
		k := int(kr%6) + 2
		m := int(mr)%(k-1) + 1
		h := NewHistory(m, k)
		for _, b := range seed {
			// Keep history valid: record a meet when mandatory.
			h.Record(nextMandatory(h) || b)
		}
		fd := h.FlexibilityDegree()
		// Brute force: misses until violation.
		bf := 0
		probe := h.Clone()
		for bf <= k {
			probe.Record(false)
			if probe.Violated() {
				break
			}
			bf++
		}
		return fd == bf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
