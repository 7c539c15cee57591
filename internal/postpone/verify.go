package postpone

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Violation describes one backup job that would miss its deadline under
// the postponed releases.
type Violation rta.Miss

func (v Violation) String() string {
	return fmt.Sprintf("backup J'%d,%d completes at %v past deadline %v",
		v.TaskID+1, v.Index, v.Completion, v.Deadline)
}

// Verify simulates the spare processor's mandatory backup schedule with
// the analysis' postponed releases over [0, horizon) under preemptive FP
// and returns every deadline violation (nil = the Theorem 1 backup
// guarantee holds over the horizon). It is the runtime cross-check of the
// offline analysis: callers who override θ values can use it to confirm
// safety before deployment.
func (a *Analysis) Verify(s *task.Set, kind pattern.Kind, horizon timeu.Time) []Violation {
	var out []Violation
	for _, m := range rta.PostponedMisses(s, kind, horizon, a.Theta) {
		out = append(out, Violation(m))
	}
	return out
}
