package trace

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
)

func fig1Run(t *testing.T, a policy.Approach) (*task.Set, *sim.Result) {
	t.Helper()
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	r, err := experiment.Simulate(context.Background(), s, a, policy.Options{}, fault.NoFault, 0, 0, sim.Config{
		Horizon:     timeu.FromMillis(20),
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestGanttRender(t *testing.T) {
	_, r := fig1Run(t, policy.DP)
	out := Gantt{}.Render(r)
	if !strings.Contains(out, "primary") || !strings.Contains(out, "spare") {
		t.Errorf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Errorf("missing task glyphs:\n%s", out)
	}
	if !strings.Contains(out, "x") {
		t.Errorf("expected a cancellation marker in the DP schedule:\n%s", out)
	}
	if !strings.Contains(out, "MKSS-DP") {
		t.Errorf("missing policy name:\n%s", out)
	}
}

func TestGanttWidthCap(t *testing.T) {
	_, r := fig1Run(t, policy.ST)
	out := Gantt{Width: 10}.Render(r)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "primary") && len(line) > 8+1+10+1 {
			t.Errorf("lane too wide: %q", line)
		}
	}
}

func TestGanttExplicitQuantum(t *testing.T) {
	_, r := fig1Run(t, policy.ST)
	out := Gantt{Quantum: timeu.FromMillis(2)}.Render(r)
	if !strings.Contains(out, "quantum 2ms") {
		t.Errorf("quantum not honored:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	_, r := fig1Run(t, policy.DP)
	out := Summarize(r)
	// Figure 1: main J1,1 on the primary at [0,3).
	if !strings.Contains(out, "[0ms,3ms) primary J1,1") {
		t.Errorf("missing J1,1 segment:\n%s", out)
	}
	// Backup J'1,1 on the spare, canceled at 3.
	if !strings.Contains(out, "J'1,1") || !strings.Contains(out, "(canceled)") {
		t.Errorf("missing canceled backup:\n%s", out)
	}
}

func TestCheckCleanOnPaperSchedules(t *testing.T) {
	for _, a := range policy.Approaches() {
		s, r := fig1Run(t, a)
		if problems := Check(s, r); len(problems) != 0 {
			t.Errorf("%v: trace problems: %v", a, problems)
		}
	}
}

func TestCheckCatchesOverlap(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 1, 2))
	r := &sim.Result{
		Horizon: timeu.FromMillis(10),
		Trace: []sim.Segment{
			{Proc: 0, TaskID: 0, Index: 1, Start: 0, End: timeu.FromMillis(3)},
			{Proc: 0, TaskID: 0, Index: 1, Start: timeu.FromMillis(2), End: timeu.FromMillis(3)},
		},
	}
	problems := Check(s, r)
	if len(problems) == 0 {
		t.Error("overlap not detected")
	}
}

func TestCheckCatchesDeadlineOverrun(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 5, 3, 1, 2))
	r := &sim.Result{
		Horizon: timeu.FromMillis(10),
		Trace: []sim.Segment{
			{Proc: 0, TaskID: 0, Index: 1, Start: timeu.FromMillis(4), End: timeu.FromMillis(6)},
		},
	}
	problems := Check(s, r)
	if len(problems) == 0 {
		t.Error("deadline overrun not detected")
	}
}

func TestCheckCatchesWCETOverrun(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2))
	r := &sim.Result{
		Horizon: timeu.FromMillis(10),
		Trace: []sim.Segment{
			{Proc: 0, TaskID: 0, Index: 1, Start: 0, End: timeu.FromMillis(1)},
			{Proc: 1, TaskID: 0, Index: 1, Start: timeu.FromMillis(2), End: timeu.FromMillis(4)},
		},
	}
	problems := Check(s, r)
	if len(problems) == 0 {
		t.Error("WCET overrun not detected")
	}
}

func TestTaskGlyphs(t *testing.T) {
	if taskGlyph(0) != '1' || taskGlyph(8) != '9' {
		t.Error("digit glyphs wrong")
	}
	if taskGlyph(9) != 'a' || taskGlyph(34) != 'z' {
		t.Error("letter glyphs wrong")
	}
	if taskGlyph(35) != '#' {
		t.Error("overflow glyph wrong")
	}
}
