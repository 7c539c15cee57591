package rta

import (
	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Profile summarizes the synchronous mandatory-only FP schedule over one
// (m,k)-hyperperiod — the Theorem-1 schedule — in the aggregate terms
// the analytical twin's closed-form energy model consumes. It is the
// recording mode of the walk behind SchedulableRPattern: it keeps what
// the filter discards (busy time, idle-gap lengths, per-task job counts
// and response times) and never exits early, so an unschedulable set
// still yields a complete profile with Schedulable=false.
type Profile struct {
	// Horizon is the profiled window: the (m,k)-hyperperiod, saturated
	// at the cap passed to MandatoryProfile.
	Horizon timeu.Time
	// Busy is the total mandatory execution demand released in
	// [0, Horizon): Σ_i Count[i]·Ci. When Horizon is an exact
	// (m,k)-hyperperiod (not saturated at the cap) the constrained-
	// deadline synchronous schedule drains within the window when
	// schedulable, so Busy + ΣGaps == Horizon; a saturated horizon can
	// cut through a busy interval, leaving Busy + ΣGaps slightly above
	// Horizon as the walk lets the released jobs finish.
	Busy timeu.Time
	// Gaps are the idle intervals of the mandatory-only schedule, in
	// order. The twin splits them into sleepable (≥ the DPD break-even
	// time) and idle remainder.
	Gaps []timeu.Time
	// Count is the number of mandatory jobs of each task in the window.
	Count []int
	// MaxResponse is each task's worst observed mandatory-job response
	// time in the walk (0 for tasks with no mandatory job in the
	// window). Under the R-pattern premise this bounds the paper's R̃i
	// used by the θ/Yi overlap terms.
	MaxResponse []timeu.Time
	// Schedulable reports whether every mandatory job met its deadline —
	// SchedulableRPattern's verdict whenever the cap is at least every
	// deadline.
	Schedulable bool
}

// MandatoryProfile runs the recording walk over the synchronous
// mandatory-only schedule of s under the given static pattern, with the
// hyperperiod saturated at cap (same convention as SchedulableRPattern).
func MandatoryProfile(s *task.Set, kind pattern.Kind, cap timeu.Time) Profile {
	rec := record{Profile: Profile{
		Horizon:     s.MKHyperperiod(cap),
		Count:       make([]int, s.N()),
		MaxResponse: make([]timeu.Time, s.N()),
	}}
	if rec.Horizon > 0 {
		var it mandIter
		it.init(s, kind, rec.Horizon, nil)
		rec.Schedulable = it.walk(&rec)
	}
	return rec.Profile
}

// Miss is a mandatory job that completed past its deadline.
type Miss struct {
	TaskID     int
	Index      int // 1-based job index
	Completion timeu.Time
	Deadline   timeu.Time
}

// record is what a walk run to the end keeps: the profile fields plus
// every miss. The misses stay out of Profile, which the analysis LRU
// holds by value.
type record struct {
	Profile
	misses []Miss
}

// PostponedMisses walks the mandatory jobs of s released in [0, horizon)
// with task i's releases postponed by theta[i] — the spare processor's
// backup schedule of Theorem 1 (Eq. 3) — and returns every job that
// completes past its deadline, in completion order (nil when none does).
func PostponedMisses(s *task.Set, kind pattern.Kind, horizon timeu.Time, theta []timeu.Time) []Miss {
	rec := record{Profile: Profile{
		Count:       make([]int, s.N()),
		MaxResponse: make([]timeu.Time, s.N()),
	}}
	var it mandIter
	it.init(s, kind, horizon, theta)
	it.walk(&rec)
	return rec.misses
}
