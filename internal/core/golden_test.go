package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
)

// Golden schedule tests: beyond matching the paper's energy totals, these
// pin the exact execution segments of the motivation figures so any
// change to dispatch order, postponement or cancellation semantics shows
// up as a diff, not just as a coincidentally-equal energy sum.

// segString renders segments sorted by (start, proc) in a compact,
// diff-friendly form: "proc:Jt,i[start,end)c" with c marking cancellation.
func segString(segs []sim.Segment) string {
	sorted := append([]sim.Segment(nil), segs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0; j-- {
			a, b := sorted[j-1], sorted[j]
			if b.Start < a.Start || (b.Start == a.Start && b.Proc < a.Proc) {
				sorted[j-1], sorted[j] = b, a
			} else {
				break
			}
		}
	}
	var parts []string
	for _, s := range sorted {
		prime := ""
		if s.Copy == task.Backup {
			prime = "'"
		}
		c := ""
		if s.Canceled {
			c = "x"
		}
		parts = append(parts, fmt.Sprintf("P%d:J%s%d,%d[%v,%v)%s",
			s.Proc, prime, s.TaskID+1, s.Index, s.Start, s.End, c))
	}
	return strings.Join(parts, " ")
}

func TestGoldenFig1Schedule(t *testing.T) {
	r := runApproach(t, fig1Set(), policy.DP, 20)
	want := strings.Join([]string{
		"P0:J1,1[0ms,3ms)",   // main τ1 job 1
		"P1:J2,1[0ms,1ms)",   // main τ2 starts on the spare
		"P1:J'1,1[1ms,3ms)x", // backup τ'1 promoted at 1, canceled at 3
		"P0:J'2,1[3ms,5ms)x", // backup τ'2 runs after J11, canceled at 5
		"P1:J2,1[3ms,5ms)",   // main τ2 resumes and completes
		"P0:J1,2[5ms,8ms)",   // main τ1 job 2
		"P1:J'1,2[6ms,8ms)x", // backup τ'1 job 2, canceled at 8
	}, " ")
	if got := segString(r.Trace); got != want {
		t.Errorf("Fig.1 schedule drifted:\n got  %s\n want %s", got, want)
	}
}

func TestGoldenFig2Schedule(t *testing.T) {
	r := runApproach(t, fig1Set(), policy.Selective, 20)
	want := strings.Join([]string{
		"P0:J2,1[0ms,3ms)",   // O21 (FD 1), τ2's 1st selection -> primary
		"P0:J1,2[5ms,8ms)",   // O12, τ1's 1st selection -> primary
		"P1:J1,3[10ms,13ms)", // J13 re-selected, τ1's 2nd -> spare
		"P1:J2,2[13ms,16ms)", // J22 re-selected, τ2's 2nd -> spare
	}, " ")
	if got := segString(r.Trace); got != want {
		t.Errorf("Fig.2 schedule drifted:\n got  %s\n want %s", got, want)
	}
}

func TestGoldenFig4Schedule(t *testing.T) {
	r := runApproach(t, fig3Set(), policy.Selective, 25)
	want := strings.Join([]string{
		"P0:J2,2[4ms,5ms)",   // O22 starts on the primary...
		"P0:J1,2[5ms,7ms)",   // ...preempted by O12 (FP within the OJQ)
		"P0:J2,2[7ms,8ms)",   // O22 completes by its deadline 8
		"P1:J2,3[8ms,10ms)",  // J'23, τ2's 2nd selection -> spare (idle at 8)
		"P1:J1,3[10ms,12ms)", // J13, τ1's 2nd selection -> spare
		"P0:J2,5[16ms,18ms)", // J25, τ2's 3rd -> primary
		"P0:J1,5[20ms,22ms)", // J15, τ1's 3rd -> primary
		"P1:J2,6[20ms,22ms)", // J26, τ2's 4th -> spare
	}, " ")
	if got := segString(r.Trace); got != want {
		t.Errorf("Fig.4 schedule drifted:\n got  %s\n want %s", got, want)
	}
}

func TestGoldenFig3GreedySchedule(t *testing.T) {
	r := runApproach(t, fig3Set(), policy.Greedy, 25)
	// The §III narrative, reconstructed: O11 runs first (FP tie-break at
	// FD 2), J12 expires behind O22 (FIFO within equal FD), J13/J14
	// become FD-1 jobs and preempt, four τ1 jobs total.
	got := segString(r.Trace)
	for _, must := range []string{
		"P0:J1,1[0ms,2ms)",   // O11 executed (it causes J13's demotion)
		"P0:J2,1[2ms,4ms)",   // O21 follows
		"P0:J1,3[10ms,12ms)", // J13 re-selected as optional
		"P0:J1,4[15ms,17ms)", // J14 (fourth τ1 job: 1,3,4 plus J15)
		"P0:J1,5[20ms,22ms)", // J15
	} {
		if !strings.Contains(got, must) {
			t.Errorf("Fig.3 greedy schedule missing %q:\n%s", must, got)
		}
	}
	// J12 must never execute (expired behind O22).
	if strings.Contains(got, "J1,2[") {
		t.Errorf("J12 executed but the narrative says it expires:\n%s", got)
	}
	// Everything greedy does happens on the primary.
	if strings.Contains(got, "P1:") {
		t.Errorf("greedy used the spare for optionals:\n%s", got)
	}
}

// The Fig. 5 runtime-postponement check (selective θ application) lives
// with the implementation, in internal/sim/policy/dynamic/theta_test.go.
