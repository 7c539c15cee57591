package task

import (
	"fmt"

	"repro/internal/timeu"
)

// Class is the (m,k) classification of a job at release time.
type Class int

const (
	// Mandatory jobs must complete; they get a backup copy on the spare
	// processor ("1" in the R-pattern of Eq. (1)).
	Mandatory Class = iota
	// Optional jobs may execute when beneficial and never have backups
	// ("0" in the R-pattern).
	Optional
)

func (c Class) String() string {
	switch c {
	case Mandatory:
		return "mandatory"
	case Optional:
		return "optional"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Copy distinguishes the two duplicates of a mandatory job in a
// standby-sparing system (§II-A): the main copy on the primary processor
// and the backup copy on the spare. Optional jobs only ever have a main
// copy.
type Copy int

const (
	Main Copy = iota
	Backup
)

func (c Copy) String() string {
	if c == Backup {
		return "backup"
	}
	return "main"
}

// Job is one released instance J_ij of a task, or one copy of it. The
// scheduler owns Jobs; they are mutable records of execution progress.
type Job struct {
	// TaskID and Index identify J_ij: the Index-th job (1-based) of task
	// TaskID.
	TaskID int
	Index  int
	// Copy says whether this record is the main or the backup copy.
	Copy Copy
	// Class at release time: from the static (m,k) pattern under ST and
	// DP, from the task's outcome window under the dynamic policies (see
	// internal/sim/policy).
	Class Class

	// Release is the time the copy becomes eligible: r_ij for mains,
	// r̃_ij = r_ij + θ_i for postponed backups (Eq. 3).
	Release timeu.Time
	// BaseRelease is always the nominal r_ij, regardless of postponement.
	BaseRelease timeu.Time
	// Deadline is the absolute deadline d_ij.
	Deadline timeu.Time
	// WCET is c_ij (= Ci in the paper's model).
	WCET timeu.Time
	// Promote is the dual-priority promotion instant (release + Yi) at
	// which a backup job leaves the background band and assumes its
	// regular fixed priority. Zero means the job never runs in the
	// background band (always at regular priority).
	Promote timeu.Time
	// FD is the flexibility degree (Definition 1) of the job at release
	// time, recorded by the dynamic policies for queue ordering and
	// diagnostics; zero for statically classified jobs.
	FD int

	// Remaining execution demand; initialized to WCET.
	Remaining timeu.Time
	// Started reports whether the copy has ever run.
	Started bool

	// Faulty marks a copy hit by a transient fault during execution; the
	// sanity check at end of execution (§II-B) detects it, so the copy
	// completes without effect.
	Faulty bool
	// Canceled marks a backup whose main copy succeeded (or a job whose
	// processor suffered the permanent fault before it could matter).
	Canceled bool
	// Done marks the copy as finished executing (successfully or not).
	Done bool
}

// InitJob (re)initializes j in place as the main copy of J_ij for task t
// with the given class, overwriting any previous state — the pooled engine
// scratch reuses Job records across runs through this entry point. It
// zeroes the record and assigns the fields in place (no temporary Job, no
// copy of t); t is only read.
func InitJob(j *Job, t *Task, index int, class Class) {
	r := t.Release(index)
	*j = Job{}
	j.TaskID = t.ID
	j.Index = index
	j.Class = class
	j.Release = r
	j.BaseRelease = r
	j.Deadline = r + t.Deadline
	j.WCET = t.WCET
	j.Remaining = t.WCET
}

// InitBackup (re)initializes j in place as the backup copy of a mandatory
// job, postponed by theta (Eq. 3: r̃_i = r_i + θ_i).
func InitBackup(j *Job, t *Task, index int, theta timeu.Time) {
	InitJob(j, t, index, Mandatory)
	j.Copy = Backup
	j.Release = j.BaseRelease + theta
}

// NewJob builds the main copy of J_ij for task t with the given class.
func NewJob(t Task, index int, class Class) *Job {
	j := new(Job)
	InitJob(j, &t, index, class)
	return j
}

// NewBackup builds the backup copy of a mandatory job, postponed by theta
// (Eq. 3: r̃_i = r_i + θ_i).
func NewBackup(t Task, index int, theta timeu.Time) *Job {
	j := new(Job)
	InitBackup(j, &t, index, theta)
	return j
}

// Name renders "J23" style identifiers; backups get a prime suffix to
// match the paper's J'_ij.
func (j *Job) Name() string {
	p := ""
	if j.Copy == Backup {
		p = "'"
	}
	return fmt.Sprintf("J%s%d,%d", p, j.TaskID+1, j.Index)
}

func (j *Job) String() string {
	return fmt.Sprintf("%s[%s %s r=%v d=%v rem=%v]", j.Name(), j.Class, j.Copy, j.Release, j.Deadline, j.Remaining)
}

// Completed reports whether the copy ran to completion without a transient
// fault — the paper's notion of "executed successfully".
func (j *Job) Completed() bool {
	return j.Done && !j.Faulty && !j.Canceled && j.Remaining == 0
}

// Expired reports whether the copy can no longer complete by its deadline
// if dispatched at time now.
func (j *Job) Expired(now timeu.Time) bool {
	return now+j.Remaining > j.Deadline
}
